"""Package metadata (this file is the metadata of record) and the build
of the optional compiled engine core (``repro.sim._engine_c``): the
extension is marked optional, so a missing C toolchain degrades to the
authoritative pure-Python engine instead of failing the install.  Build it
in place with::

    python setup.py build_ext --inplace
"""

from setuptools import Extension, find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    description=(
        "Reproduction of Clark/Shenker/Zhang SIGCOMM'92: real-time services "
        "in an ISPN"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    ext_modules=[
        Extension(
            "repro.sim._engine_c",
            sources=["src/repro/sim/_engine_c.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ],
)
