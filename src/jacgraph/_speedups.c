/* Compiled enumeration kernel: bound table and box search.
 *
 * Same contract and algorithms as jacgraph._kernel_py, which stays the
 * fallback and the reference, computed in signed 64-bit integers.  Tables
 * are the plain tuple (n, scale, floor): one floor table over G - S, a
 * read-only int64 memoryview of 2**n entries, which indexes and converts
 * to a list like the pure kernel's; the upper bounds are derived from it.
 * Every integer read from Python must fit in 64 bits or OverflowError is
 * raised; the sums and products formed from them are not checked, so
 * callers keep operands below jacgraph._kernel.FAST_BOUND (the dispatcher
 * routes larger ones to the pure kernel).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

enum { MODE_SEMISTABLE, MODE_QUASISTABLE, MODE_STABLE }; /* as in _kernel_py */

/* tables hold 2**n entries; the library's subset-scan guard stops at 20 */
#define MAX_VERTICES 24

/* Copy a sequence of exactly len ints into out.  Sequences are read through
   a tuple copy, so conversions that run Python code cannot resize them. */
static int load_ints(PyObject *obj, Py_ssize_t len, long long *out, const char *what)
{
    PyObject *seq = PySequence_Tuple(obj);
    if (seq == NULL)
        return -1;
    int rc = 0;
    if (PyTuple_GET_SIZE(seq) != len) {
        PyErr_Format(PyExc_ValueError, "%s: expected %zd values, got %zd",
                     what, len, PyTuple_GET_SIZE(seq));
        rc = -1;
    }
    for (Py_ssize_t i = 0; rc == 0 && i < len; i++) {
        out[i] = PyLong_AsLongLong(PyTuple_GET_ITEM(seq, i));
        if (out[i] == -1 && PyErr_Occurred())
            rc = -1;
    }
    Py_DECREF(seq);
    return rc;
}

/* A table: a read-only int64 ("q") memoryview over a copy of values. */
static PyObject *to_table(const long long *values, size_t len)
{
    PyObject *bytes = PyBytes_FromStringAndSize((const char *)values, len * sizeof(long long));
    if (bytes == NULL)
        return NULL;
    PyObject *raw = PyMemoryView_FromObject(bytes);
    Py_DECREF(bytes);
    if (raw == NULL)
        return NULL;
    PyObject *table = PyObject_CallMethod(raw, "cast", "s", "q");
    Py_DECREF(raw);
    return table;
}

/* Copy a table of exactly len int64 entries into out. */
static int load_table(PyObject *obj, size_t len, long long *out, const char *what)
{
    Py_buffer view;
    if (PyObject_GetBuffer(obj, &view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    int ok = view.itemsize == sizeof(long long) && strcmp(view.format, "q") == 0
             && (size_t)view.len == len * sizeof(long long);
    if (ok)
        memcpy(out, view.buf, (size_t)view.len);
    else
        PyErr_Format(PyExc_ValueError, "%s: expected %zu int64 entries", what, len);
    PyBuffer_Release(&view);
    return ok ? 0 : -1;
}

PyDoc_STRVAR(build_tables_doc,
"build_tables(n, edges, base, scale) -> (n, scale, floor)\n\n"
"Per-subset floor table, as in jacgraph._kernel_py.build_tables.");

static PyObject *build_tables(PyObject *self, PyObject *args)
{
    int n;
    long long scale;
    PyObject *edges, *base;
    PyObject *es = NULL, *floor_table = NULL, *result = NULL;

    if (!PyArg_ParseTuple(args, "iOOL:build_tables", &n, &edges, &base, &scale))
        return NULL;
    if (n < 0 || n > MAX_VERTICES)
        return PyErr_Format(PyExc_ValueError, "n = %d outside 0..%d", n, MAX_VERTICES);
    size_t size = (size_t)1 << n;
    long long half = scale / 2;
    long long *buf = PyMem_Malloc((size + n + 1) * sizeof(long long));
    if (buf == NULL)
        return PyErr_NoMemory();
    long long *lower = buf, *q = buf + size;

    if (load_ints(base, n, q, "base") < 0 || (es = PySequence_Tuple(edges)) == NULL)
        goto done;

    /* the subset sums of base, one top bit at a time */
    lower[0] = 0;
    for (int i = 0; i < n; i++) {
        size_t bit = (size_t)1 << i;
        for (size_t m = 0; m < bit; m++)
            lower[m | bit] = lower[m] + q[i];
    }

    /* per edge: -scale/2 where it crosses */
    for (Py_ssize_t e = 0; e < PyTuple_GET_SIZE(es); e++) {
        int a, b;
        if (!PyArg_Parse(PyTuple_GET_ITEM(es, e), "(ii)", &a, &b))
            goto done;
        if (a < 0 || a >= n || b < 0 || b >= n) {
            PyErr_Format(PyExc_ValueError, "edge (%d, %d) has an endpoint outside 0..%d",
                         a, b, n - 1);
            goto done;
        }
        size_t abit = (size_t)1 << a, bbit = (size_t)1 << b;
        for (size_t m = 0; m < size; m++)
            if (((m & abit) != 0) != ((m & bbit) != 0))
                lower[m] -= half;
    }

    floor_table = to_table(lower, size);
    if (floor_table != NULL)
        result = Py_BuildValue("(iLO)", n, scale, floor_table);
done:
    Py_XDECREF(floor_table);
    Py_XDECREF(es);
    PyMem_Free(buf);
    return result;
}

typedef struct {
    int n;
    long long scale, total;
    const long long *lo, *hi, *low, *high, *suf_lo, *suf_hi;
    long long *sums, *d;
    PyObject *out;
} Search;

/* Assign vertex k.  Every subset whose top vertex is k is decided once d_k is
   chosen, so its bounds are checked at once; the suffix sums of the box prune
   on the total.  sums[m] holds scale * d_m, so the inner loops need no
   multiply.  Returns -1 with an exception set, else 0. */
static int place(const Search *s, int k, long long partial)
{
    const long long *low = s->low, *high = s->high;
    long long *sums = s->sums, scale = s->scale;
    size_t base = (size_t)1 << k, m;

    if (k == s->n - 1) {
        size_t full = (base << 1) - 1;
        long long dv = s->total - partial;
        if (dv < s->lo[k] || dv > s->hi[k])
            return 0;
        long long step = scale * dv;
        for (m = base; m < full; m++) {
            long long sd = sums[m ^ base] + step;
            if (sd < low[m] || sd > high[m])
                return 0;
        }
        s->d[k] = dv;
        PyObject *row = PyTuple_New(s->n);
        for (int i = 0; row != NULL && i < s->n; i++) {
            PyObject *v = PyLong_FromLongLong(s->d[i]);
            if (v == NULL)
                Py_CLEAR(row);
            else
                PyTuple_SET_ITEM(row, i, v);
        }
        int rc = row == NULL ? -1 : PyList_Append(s->out, row);
        Py_XDECREF(row);
        return rc;
    }
    for (long long dv = s->lo[k]; dv <= s->hi[k]; dv++) {
        long long p2 = partial + dv;
        if (p2 + s->suf_lo[k + 1] > s->total || p2 + s->suf_hi[k + 1] < s->total)
            continue;
        long long step = scale * dv;
        for (m = base; m < base << 1; m++) {
            long long sd = sums[m ^ base] + step;
            sums[m] = sd;
            if (sd < low[m] || sd > high[m])
                break;
        }
        if (m == base << 1) {
            s->d[k] = dv;
            if (place(s, k + 1, p2) < 0)
                return -1;
        }
    }
    return 0;
}

PyDoc_STRVAR(box_enumerate_doc,
"box_enumerate(tables, v0, total, lo, hi, mode) -> list of tuples\n\n"
"Integer vectors in the box with the given total that satisfy the\n"
"per-subset bounds, as in jacgraph._kernel_py.box_enumerate.");

static PyObject *box_enumerate(PyObject *self, PyObject *args)
{
    PyObject *tables, *floor_seq, *lo, *hi, *out = NULL;
    int v0, mode, n;
    long long total, scale;

    if (!PyArg_ParseTuple(args, "O!iLOOi:box_enumerate", &PyTuple_Type,
                          &tables, &v0, &total, &lo, &hi, &mode))
        return NULL;
    if (!PyArg_ParseTuple(tables, "iLO;tables must be (n, scale, floor)",
                          &n, &scale, &floor_seq))
        return NULL;
    if (n < 1 || n > MAX_VERTICES)
        return PyErr_Format(PyExc_ValueError, "n = %d outside 1..%d", n, MAX_VERTICES);
    if (v0 < 0 || v0 >= n)
        return PyErr_Format(PyExc_ValueError, "v0 = %d outside 0..%d", v0, n - 1);
    size_t size = (size_t)1 << n, full = size - 1, m;
    long long *buf = PyMem_Malloc((3 * size + 5 * ((size_t)n + 1)) * sizeof(long long));
    if (buf == NULL)
        return PyErr_NoMemory();
    long long *low = buf, *high = low + size, *sums = high + size;
    long long *clo = sums + size, *chi = clo + n + 1;
    long long *suf_lo = chi + n + 1, *suf_hi = suf_lo + n + 1, *d = suf_hi + n + 1;

    if (load_table(floor_seq, size, low, "floor table") < 0
        || load_ints(lo, n, clo, "lo") < 0
        || load_ints(hi, n, chi, "hi") < 0)
        goto done;
    /* the complement holds the rest of the total */
    for (m = 0; m < size; m++)
        high[m] = scale * total - low[full ^ m];
    /* strict bounds on proper subsets: quasistable from below on those that
       hold v0 and from above on the others, stable both ways on all */
    for (m = 1; m < full; m++) {
        int holds_v0 = (m >> v0) & 1;
        if (mode == MODE_STABLE || (mode == MODE_QUASISTABLE && holds_v0))
            low[m] += 1;
        if (mode == MODE_STABLE || (mode == MODE_QUASISTABLE && !holds_v0))
            high[m] -= 1;
    }
    suf_lo[n] = suf_hi[n] = 0;
    for (int k = n - 1; k >= 0; k--) {
        suf_lo[k] = suf_lo[k + 1] + clo[k];
        suf_hi[k] = suf_hi[k + 1] + chi[k];
    }
    out = PyList_New(0);
    if (out != NULL && suf_lo[0] <= total && suf_hi[0] >= total) {
        Search s = {n, scale, total, clo, chi, low, high, suf_lo, suf_hi, sums, d, out};
        sums[0] = 0;
        if (place(&s, 0, 0) < 0)
            Py_CLEAR(out);
    }
done:
    PyMem_Free(buf);
    return out;
}

static PyMethodDef methods[] = {
    {"build_tables", build_tables, METH_VARARGS, build_tables_doc},
    {"box_enumerate", box_enumerate, METH_VARARGS, box_enumerate_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "jacgraph._speedups",
    .m_doc = "Compiled enumeration kernel; see jacgraph._kernel_py for the contract.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
