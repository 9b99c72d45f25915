/* Compiled core for the discrete-event engine (repro.sim._engine_c).
 *
 * CSimulator is a drop-in for repro.sim.engine.PySimulator: same public
 * surface, same validation errors, same (time, priority, seq) total
 * order, same lazy-cancellation + compaction behaviour, same
 * batched-service seam (peek_next_time / horizon / advance_to).  The
 * pure-Python engine remains authoritative — the golden
 * suite must pass bit-identically under both — this module only removes
 * interpreter overhead: events live in a C array of structs (no tuple per
 * event), the heap is sifted in C, and the run loop is one C frame.
 *
 * The module is wired at import by repro.sim.engine calling
 * _wire(SimulationError, EventHandle) so both backends raise and return
 * exactly the same Python types.  Build via `python setup.py build_ext
 * --inplace`; if the extension is absent the factory silently uses the
 * pure-Python engine, and REPRO_PURE_PYTHON=1 ignores it even when built.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>

/* Compact the queue only past this many dead cells (matches
 * repro.sim.engine.COMPACT_MIN_CANCELLED). */
#define COMPACT_MIN_CANCELLED 256

typedef struct {
    double time;
    long priority;
    long long seq;
    PyObject *action; /* owned; callable, or one-cell list for cancellables */
} Event;

typedef struct {
    PyObject_HEAD
    double now;
    double horizon;
    Event *heap;
    Py_ssize_t size;
    Py_ssize_t capacity;
    long long seq;
    long long events_processed;
    long long cancelled;
    int running;
} CSimulator;

/* Wired from repro.sim.engine at import time. */
static PyObject *SimulationError = NULL;
static PyObject *EventHandleClass = NULL;

/* ------------------------------------------------------------------ */
/* Heap primitives: min-heap on (time, priority, seq).                 */
/* ------------------------------------------------------------------ */

static inline int
kwname_is(PyObject *name, const char *expected)
{
    return PyUnicode_CompareWithASCIIString(name, expected) == 0;
}

static inline int
ev_lt(const Event *a, const Event *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    if (a->priority != b->priority)
        return a->priority < b->priority;
    return a->seq < b->seq;
}

static int
heap_reserve(CSimulator *self, Py_ssize_t need)
{
    if (need <= self->capacity)
        return 0;
    Py_ssize_t cap = self->capacity ? self->capacity : 64;
    while (cap < need)
        cap *= 2;
    Event *grown = PyMem_Realloc(self->heap, (size_t)cap * sizeof(Event));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = grown;
    self->capacity = cap;
    return 0;
}

static void
heap_sift_up(Event *heap, Py_ssize_t pos)
{
    Event item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!ev_lt(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static void
heap_sift_down(Event *heap, Py_ssize_t size, Py_ssize_t pos)
{
    Event item = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size && ev_lt(&heap[child + 1], &heap[child]))
            child += 1;
        if (!ev_lt(&heap[child], &item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

/* Push; steals a reference to action on success, decrefs it on failure. */
static int
heap_push(CSimulator *self, double time, long priority, PyObject *action)
{
    if (heap_reserve(self, self->size + 1) < 0) {
        Py_DECREF(action);
        return -1;
    }
    Event *slot = &self->heap[self->size];
    slot->time = time;
    slot->priority = priority;
    slot->seq = self->seq++;
    slot->action = action;
    heap_sift_up(self->heap, self->size);
    self->size += 1;
    return 0;
}

/* Pop the minimum into *out (caller owns out->action). Size must be > 0. */
static void
heap_pop(CSimulator *self, Event *out)
{
    *out = self->heap[0];
    self->size -= 1;
    if (self->size > 0) {
        self->heap[0] = self->heap[self->size];
        heap_sift_down(self->heap, self->size, 0);
    }
}

static void
heap_heapify(Event *heap, Py_ssize_t size)
{
    for (Py_ssize_t i = size / 2 - 1; i >= 0; i--)
        heap_sift_down(heap, size, i);
}

/* A cancelled handle cell: a list whose single slot was swapped to None. */
static inline int
ev_is_dead(const Event *ev)
{
    return PyList_CheckExact(ev->action) &&
           PyList_GET_ITEM(ev->action, 0) == Py_None;
}

/* ------------------------------------------------------------------ */
/* Argument helpers (FASTCALL with optional keywords).                 */
/* ------------------------------------------------------------------ */

/* Parse (t, action, priority=0) where the first positional may be named
 * either "delay" or "time" depending on the method. */
static int
parse_schedule_args(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
                    const char *first_name, const char *method,
                    double *t, PyObject **action, long *priority)
{
    PyObject *t_obj = NULL, *prio_obj = NULL;
    *action = NULL;
    if (nargs >= 1)
        t_obj = args[0];
    if (nargs >= 2)
        *action = args[1];
    if (nargs >= 3)
        prio_obj = args[2];
    if (nargs > 3) {
        PyErr_Format(PyExc_TypeError, "%s() takes at most 3 arguments", method);
        return -1;
    }
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *value = args[nargs + i];
            if (kwname_is(name, first_name)) {
                if (t_obj) goto duplicate;
                t_obj = value;
            }
            else if (kwname_is(name, "action")) {
                if (*action) goto duplicate;
                *action = value;
            }
            else if (kwname_is(name, "priority")) {
                if (prio_obj) goto duplicate;
                prio_obj = value;
            }
            else {
                PyErr_Format(PyExc_TypeError,
                             "%s() got an unexpected keyword argument %R",
                             method, name);
                return -1;
            }
            continue;
        duplicate:
            PyErr_Format(PyExc_TypeError,
                         "%s() got multiple values for argument %R",
                         method, name);
            return -1;
        }
    }
    if (t_obj == NULL || *action == NULL) {
        PyErr_Format(PyExc_TypeError,
                     "%s() missing required arguments", method);
        return -1;
    }
    *t = PyFloat_AsDouble(t_obj);
    if (*t == -1.0 && PyErr_Occurred())
        return -1;
    if (prio_obj != NULL) {
        *priority = PyLong_AsLong(prio_obj);
        if (*priority == -1 && PyErr_Occurred())
            return -1;
    }
    else {
        *priority = 0;
    }
    return 0;
}

static int
check_delay(double delay)
{
    if (!(delay >= 0.0 && delay < INFINITY)) {
        PyObject *obj = PyFloat_FromDouble(delay);
        if (obj != NULL) {
            PyErr_Format(SimulationError,
                         "delay must be finite and non-negative, got %S", obj);
            Py_DECREF(obj);
        }
        return -1;
    }
    return 0;
}

static int
check_abs_time(CSimulator *self, double time)
{
    if (!(time >= self->now && time < INFINITY)) {
        PyObject *t = PyFloat_FromDouble(time);
        PyObject *n = PyFloat_FromDouble(self->now);
        if (t != NULL && n != NULL)
            PyErr_Format(SimulationError,
                         "cannot schedule at %S (current time %S)", t, n);
        Py_XDECREF(t);
        Py_XDECREF(n);
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Type basics                                                         */
/* ------------------------------------------------------------------ */

static int
CSimulator_init(CSimulator *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"start_time", NULL};
    double start = 0.0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|d", kwlist, &start))
        return -1;
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_CLEAR(self->heap[i].action);
    self->size = 0;
    self->now = start;
    self->horizon = INFINITY;
    self->seq = 0;
    self->events_processed = 0;
    self->cancelled = 0;
    self->running = 0;
    return 0;
}

static int
CSimulator_traverse(CSimulator *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_VISIT(self->heap[i].action);
    return 0;
}

static int
CSimulator_clear_slot(CSimulator *self)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_CLEAR(self->heap[i].action);
    self->size = 0;
    return 0;
}

static void
CSimulator_dealloc(CSimulator *self)
{
    PyObject_GC_UnTrack(self);
    CSimulator_clear_slot(self);
    PyMem_Free(self->heap);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* ------------------------------------------------------------------ */
/* Scheduling                                                          */
/* ------------------------------------------------------------------ */

static PyObject *
CSimulator_schedule(CSimulator *self, PyObject *const *args, Py_ssize_t nargs,
                    PyObject *kwnames)
{
    double delay;
    long priority;
    PyObject *action;
    if (parse_schedule_args(args, nargs, kwnames, "delay", "schedule",
                            &delay, &action, &priority) < 0)
        return NULL;
    if (check_delay(delay) < 0)
        return NULL;
    Py_INCREF(action);
    if (heap_push(self, self->now + delay, priority, action) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
CSimulator_schedule_at(CSimulator *self, PyObject *const *args,
                       Py_ssize_t nargs, PyObject *kwnames)
{
    double time;
    long priority;
    PyObject *action;
    if (parse_schedule_args(args, nargs, kwnames, "time", "schedule_at",
                            &time, &action, &priority) < 0)
        return NULL;
    if (check_abs_time(self, time) < 0)
        return NULL;
    Py_INCREF(action);
    if (heap_push(self, time, priority, action) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
schedule_handle_common(CSimulator *self, double time, long priority,
                       PyObject *action)
{
    PyObject *cell = PyList_New(1);
    if (cell == NULL)
        return NULL;
    Py_INCREF(action);
    PyList_SET_ITEM(cell, 0, action);
    Py_INCREF(cell); /* the heap's reference */
    if (heap_push(self, time, priority, cell) < 0) {
        Py_DECREF(cell);
        return NULL;
    }
    PyObject *time_obj = PyFloat_FromDouble(time);
    if (time_obj == NULL) {
        Py_DECREF(cell);
        return NULL;
    }
    PyObject *handle = PyObject_CallFunctionObjArgs(
        EventHandleClass, time_obj, cell, (PyObject *)self, NULL);
    Py_DECREF(time_obj);
    Py_DECREF(cell);
    return handle;
}

static PyObject *
CSimulator_schedule_handle(CSimulator *self, PyObject *const *args,
                           Py_ssize_t nargs, PyObject *kwnames)
{
    double delay;
    long priority;
    PyObject *action;
    if (parse_schedule_args(args, nargs, kwnames, "delay", "schedule_handle",
                            &delay, &action, &priority) < 0)
        return NULL;
    if (check_delay(delay) < 0)
        return NULL;
    return schedule_handle_common(self, self->now + delay, priority, action);
}

static PyObject *
CSimulator_schedule_handle_at(CSimulator *self, PyObject *const *args,
                              Py_ssize_t nargs, PyObject *kwnames)
{
    double time;
    long priority;
    PyObject *action;
    if (parse_schedule_args(args, nargs, kwnames, "time", "schedule_handle_at",
                            &time, &action, &priority) < 0)
        return NULL;
    if (check_abs_time(self, time) < 0)
        return NULL;
    return schedule_handle_common(self, time, priority, action);
}

/* ------------------------------------------------------------------ */
/* Queue hygiene                                                       */
/* ------------------------------------------------------------------ */

static PyObject *
CSimulator_compact(CSimulator *self, PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t alive = 0;
    for (Py_ssize_t i = 0; i < self->size; i++) {
        if (ev_is_dead(&self->heap[i])) {
            Py_DECREF(self->heap[i].action);
        }
        else {
            self->heap[alive++] = self->heap[i];
        }
    }
    if (alive != self->size) {
        self->size = alive;
        heap_heapify(self->heap, alive);
    }
    self->cancelled = 0;
    Py_RETURN_NONE;
}

static PyObject *
CSimulator_note_cancel(CSimulator *self, PyObject *Py_UNUSED(ignored))
{
    long long cancelled = ++self->cancelled;
    if (cancelled >= COMPACT_MIN_CANCELLED &&
        2 * cancelled > (long long)self->size)
        return CSimulator_compact(self, NULL);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Batched-service seam                                                */
/* ------------------------------------------------------------------ */

static PyObject *
CSimulator_peek_next_time(CSimulator *self, PyObject *Py_UNUSED(ignored))
{
    while (self->size > 0) {
        if (ev_is_dead(&self->heap[0])) {
            Event dead;
            heap_pop(self, &dead);
            Py_DECREF(dead.action);
            self->cancelled -= 1;
            continue;
        }
        return PyFloat_FromDouble(self->heap[0].time);
    }
    return PyFloat_FromDouble(INFINITY);
}

static PyObject *
CSimulator_advance_to(CSimulator *self, PyObject *arg)
{
    double time = PyFloat_AsDouble(arg);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    self->now = time;
    self->events_processed += 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Execution                                                           */
/* ------------------------------------------------------------------ */

/* Resolve a popped event to its callable (new reference), or NULL for a
 * cancelled cell (in which case *cancelled_out is bumped). */
static PyObject *
resolve_action(CSimulator *self, Event *ev)
{
    PyObject *action = ev->action;
    if (PyList_CheckExact(action)) {
        PyObject *fn = PyList_GET_ITEM(action, 0);
        if (fn == Py_None)
            return NULL;
        Py_INCREF(fn);
        /* Mark fired so handles report inactive (and never re-notify). */
        Py_INCREF(Py_None);
        PyList_SetItem(action, 0, Py_None);
        return fn;
    }
    Py_INCREF(action);
    return action;
}

static PyObject *
CSimulator_step(CSimulator *self, PyObject *Py_UNUSED(ignored))
{
    while (self->size > 0) {
        Event ev;
        heap_pop(self, &ev);
        PyObject *fn = resolve_action(self, &ev);
        Py_DECREF(ev.action);
        if (fn == NULL) {
            self->cancelled -= 1;
            continue;
        }
        self->now = ev.time;
        self->events_processed += 1;
        PyObject *result = PyObject_CallNoArgs(fn);
        Py_DECREF(fn);
        if (result == NULL)
            return NULL;
        Py_DECREF(result);
        Py_RETURN_TRUE;
    }
    Py_RETURN_FALSE;
}

static PyObject *
CSimulator_run(CSimulator *self, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    PyObject *until = Py_None;
    PyObject *max_events = Py_None;
    if (nargs >= 1)
        until = args[0];
    if (nargs >= 2)
        max_events = args[1];
    if (nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "run() takes at most 2 arguments");
        return NULL;
    }
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *value = args[nargs + i];
            if (kwname_is(name, "until"))
                until = value;
            else if (kwname_is(name, "max_events"))
                max_events = value;
            else {
                PyErr_Format(PyExc_TypeError,
                             "run() got an unexpected keyword argument %R",
                             name);
                return NULL;
            }
        }
    }
    double stop = INFINITY;
    if (until != Py_None) {
        stop = PyFloat_AsDouble(until);
        if (stop == -1.0 && PyErr_Occurred())
            return NULL;
    }
    long long limit = -1;
    if (max_events != Py_None) {
        limit = PyLong_AsLongLong(max_events);
        if (limit == -1 && PyErr_Occurred())
            return NULL;
    }
    if (self->running) {
        PyErr_SetString(SimulationError, "run() is not reentrant");
        return NULL;
    }
    self->running = 1;
    self->horizon = stop;
    long long fired = 0;
    int failed = 0;
    while (self->size > 0) {
        if (self->heap[0].time > stop)
            break;
        Event ev;
        heap_pop(self, &ev);
        PyObject *fn = resolve_action(self, &ev);
        Py_DECREF(ev.action);
        if (fn == NULL) {
            self->cancelled -= 1;
            continue;
        }
        self->now = ev.time;
        fired += 1;
        PyObject *result = PyObject_CallNoArgs(fn);
        Py_DECREF(fn);
        if (result == NULL) {
            failed = 1;
            break;
        }
        Py_DECREF(result);
        if (limit >= 0 && fired >= limit)
            break;
    }
    self->running = 0;
    self->horizon = INFINITY;
    /* Added as a delta, not assigned, so events fired by nested step()
     * calls inside actions stay counted. */
    self->events_processed += fired;
    if (failed)
        return NULL;
    if (until != Py_None && self->now < stop)
        self->now = stop;
    return PyFloat_FromDouble(self->now);
}

static PyObject *
CSimulator_run_until_idle(CSimulator *self, PyObject *const *args,
                          Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *max_events = NULL;
    if (nargs >= 1)
        max_events = args[0];
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError,
                        "run_until_idle() takes at most 1 argument");
        return NULL;
    }
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            if (!kwname_is(name, "max_events")) {
                PyErr_Format(
                    PyExc_TypeError,
                    "run_until_idle() got an unexpected keyword argument %R",
                    name);
                return NULL;
            }
            max_events = args[nargs + i];
        }
    }
    PyObject *defaulted = NULL;
    if (max_events == NULL) {
        defaulted = PyLong_FromLong(10000000L);
        if (defaulted == NULL)
            return NULL;
        max_events = defaulted;
    }
    PyObject *run_args[2] = {Py_None, max_events};
    PyObject *result = CSimulator_run(self, run_args, 2, NULL);
    Py_XDECREF(defaulted);
    return result;
}

static PyObject *
CSimulator_clear_events(CSimulator *self, PyObject *Py_UNUSED(ignored))
{
    CSimulator_clear_slot(self);
    self->cancelled = 0;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Introspection                                                       */
/* ------------------------------------------------------------------ */

static PyObject *
CSimulator_get_events_processed(CSimulator *self, void *closure)
{
    return PyLong_FromLongLong(self->events_processed);
}

static PyObject *
CSimulator_get_pending(CSimulator *self, void *closure)
{
    return PyLong_FromSsize_t(self->size);
}

static PyObject *
CSimulator_get_cancelled(CSimulator *self, void *closure)
{
    return PyLong_FromLongLong(self->cancelled);
}

static PyObject *
CSimulator_repr(CSimulator *self)
{
    char buf[128];
    snprintf(buf, sizeof(buf),
             "<CSimulator t=%.6f pending=%lld fired=%lld>",
             self->now, (long long)self->size, self->events_processed);
    return PyUnicode_FromString(buf);
}

static PyMethodDef CSimulator_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))CSimulator_schedule,
     METH_FASTCALL | METH_KEYWORDS,
     "Schedule action to run delay seconds from now."},
    {"schedule_at", (PyCFunction)(void (*)(void))CSimulator_schedule_at,
     METH_FASTCALL | METH_KEYWORDS,
     "Schedule action at an absolute simulation time."},
    {"schedule_handle",
     (PyCFunction)(void (*)(void))CSimulator_schedule_handle,
     METH_FASTCALL | METH_KEYWORDS,
     "Like schedule, but returns a cancellable EventHandle."},
    {"schedule_handle_at",
     (PyCFunction)(void (*)(void))CSimulator_schedule_handle_at,
     METH_FASTCALL | METH_KEYWORDS,
     "Like schedule_at, but returns a cancellable EventHandle."},
    {"step", (PyCFunction)CSimulator_step, METH_NOARGS,
     "Fire the single next pending event; True if one fired."},
    {"run", (PyCFunction)(void (*)(void))CSimulator_run,
     METH_FASTCALL | METH_KEYWORDS,
     "Run the event loop (until=, max_events=)."},
    {"run_until_idle",
     (PyCFunction)(void (*)(void))CSimulator_run_until_idle,
     METH_FASTCALL | METH_KEYWORDS,
     "Run until no events remain (guarded by max_events)."},
    {"peek_next_time", (PyCFunction)CSimulator_peek_next_time, METH_NOARGS,
     "Time of the earliest live pending event (inf when none)."},
    {"advance_to", (PyCFunction)CSimulator_advance_to, METH_O,
     "Jump the clock forward without firing anything (batched service)."},
    {"compact", (PyCFunction)CSimulator_compact, METH_NOARGS,
     "Drop every cancelled entry from the queue immediately."},
    {"_note_cancel", (PyCFunction)CSimulator_note_cancel, METH_NOARGS,
     "A still-queued handle was cancelled (called by EventHandle)."},
    {"clear", (PyCFunction)CSimulator_clear_events, METH_NOARGS,
     "Drop all pending events."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef CSimulator_members[] = {
    {"now", T_DOUBLE, offsetof(CSimulator, now), 0,
     "Current simulation time (read-only by convention)."},
    {"horizon", T_DOUBLE, offsetof(CSimulator, horizon), 0,
     "Active run(until=...) stop time; inf outside a bounded run."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef CSimulator_getset[] = {
    {"events_processed", (getter)CSimulator_get_events_processed, NULL,
     "Number of events fired so far.", NULL},
    {"pending_events", (getter)CSimulator_get_pending, NULL,
     "Number of events still queued (including cancelled ones).", NULL},
    {"cancelled_pending", (getter)CSimulator_get_cancelled, NULL,
     "Dead (cancelled-but-unpopped) entries currently in the queue.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject CSimulatorType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._engine_c.CSimulator",
    .tp_doc = "Compiled discrete-event simulator (heap event store).",
    .tp_basicsize = sizeof(CSimulator),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)CSimulator_init,
    .tp_dealloc = (destructor)CSimulator_dealloc,
    .tp_traverse = (traverseproc)CSimulator_traverse,
    .tp_clear = (inquiry)CSimulator_clear_slot,
    .tp_repr = (reprfunc)CSimulator_repr,
    .tp_methods = CSimulator_methods,
    .tp_members = CSimulator_members,
    .tp_getset = CSimulator_getset,
};

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyObject *
engine_wire(PyObject *module, PyObject *args)
{
    PyObject *error_cls, *handle_cls;
    if (!PyArg_ParseTuple(args, "OO", &error_cls, &handle_cls))
        return NULL;
    Py_INCREF(error_cls);
    Py_XSETREF(SimulationError, error_cls);
    Py_INCREF(handle_cls);
    Py_XSETREF(EventHandleClass, handle_cls);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"_wire", engine_wire, METH_VARARGS,
     "Install the canonical SimulationError and EventHandle types."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef engine_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._engine_c",
    .m_doc = "Compiled core for the discrete-event engine.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__engine_c(void)
{
    if (PyType_Ready(&CSimulatorType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&engine_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&CSimulatorType);
    if (PyModule_AddObject(module, "CSimulator",
                           (PyObject *)&CSimulatorType) < 0) {
        Py_DECREF(&CSimulatorType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
