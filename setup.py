"""Package metadata (this file is the metadata of record).  The package is
pure Python: there is nothing to build."""

from setuptools import find_packages, setup

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
)
