/* Compiled enumeration kernel: plan, bounds and box search.
 *
 * box_enumerate has the contract of jacgraph._kernel_py.box_enumerate, which
 * stays the fallback and the reference: the same plan, the same bounds on
 * its masks and the same search tree, in signed 64-bit integers.  The proof
 * that the plan's bounds imply every other bound, and that the search cuts
 * at the level a full search would, is in that module's docstrings.  Each
 * call allocates one plan byte per subset of the n vertices and one int64
 * sum per subset without the last vertex.  It reads the box, the field
 * size and the code offsets from the caller's jacgraph._kernel.Layout, which
 * owns the row format, and returns each output as one int in it: the search
 * writes each vertex's code into its big-endian field of one byte buffer as
 * it places the vertex, and each output is that buffer read as one int
 * (_PyLong_FromByteArray), with no Python int per value.
 * Every integer read from Python must fit in 64 bits or OverflowError is
 * raised; the sums and products formed from them are not checked, so
 * callers keep operands below jacgraph._kernel.FAST_BOUND (the dispatcher
 * routes larger ones to the pure kernel).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

enum { MODE_SEMISTABLE, MODE_QUASISTABLE, MODE_STABLE }; /* as in _kernel */
/* a plan byte's flags: that the search checks both bounds of the mask,
   make_plan's mark of a connected subset, and that the search keeps it */
enum { CHECKED = 1, CONNECTED = 2, KEPT = 4 };

/* the plan holds one byte per subset, 2**n in all; the module exports this
   bound, and the library routes larger graphs to the pure kernel */
#define MAX_VERTICES 24

/* Copy a sequence of exactly len ints into out.  Sequences are read through
   a tuple copy, so conversions that run Python code cannot resize them. */
static int load_int64s(PyObject *obj, Py_ssize_t len, long long *out, const char *what)
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

/* Mark m and every connected subset grown from it by neighbours in ext,
   never adding a vertex of seen (which holds m), as in
   jacgraph.graph._connected_subsets. */
static void grow(const size_t *adj, int n, unsigned char *marks, size_t m, size_t ext,
                 size_t seen)
{
    marks[m] |= CONNECTED;
    for (int w = 0; w < n; w++) {
        size_t bit = (size_t)1 << w;
        if (ext & bit) {
            ext ^= bit;
            seen |= bit;
            grow(adj, n, marks, m | bit, ext | (adj[w] & ~seen), seen);
        }
    }
}

/* Write the plan of the graph on n vertices with neighbour masks adj to
   marks: per mask, one byte of flags, with KEPT when the search keeps the
   mask. */
static void make_plan(int n, const size_t *adj, unsigned char *marks)
{
    memset(marks, 0, (size_t)1 << n);
    for (int v = 0; v < n; v++) {
        size_t below = ((size_t)1 << v) - 1;
        grow(adj, n, marks, (size_t)1 << v, adj[v] & below, ~below);
    }
    /* comp[v]: the component that holds v, grown until no vertex joins */
    size_t comp[MAX_VERTICES];
    for (int v = 0; v < n; v++) {
        size_t piece = (size_t)1 << v, last = 0;
        while (piece != last) {
            last = piece;
            for (int w = 0; w < n; w++)
                if ((last >> w) & 1)
                    piece |= adj[w];
        }
        comp[v] = piece;
    }
    /* a connected subset whose remainder in its component is connected or
       empty; a mask that holds the last vertex (level n - 1) is not kept */
    for (int k = 0; k < n - 1; k++) {
        size_t top = (size_t)1 << k;
        for (size_t m = top; m < top << 1; m++) {
            size_t rest = comp[k] ^ m; /* m's remainder in its component */
            if ((marks[m] & CONNECTED) && (rest == 0 || (marks[rest] & CONNECTED)))
                marks[m] |= CHECKED | KEPT;
        }
    }
    /* a kept mask's prefix has a lower top vertex, so it is reached later */
    for (int k = n - 2; k >= 0; k--) {
        size_t base = (size_t)1 << k;
        for (size_t m = base + 1; m < base << 1; m++)
            if (marks[m] & KEPT)
                marks[m ^ base] |= KEPT;
    }
}

/* Read the edges of the graph on n vertices into its neighbour masks adj
   and its multiplicities, mult[a * n + b] the edges joining a and b; loops
   never cross, so they are left out.  Returns -1 with an exception set,
   else 0. */
static int read_edges(int n, PyObject *edges, size_t *adj, long long *mult)
{
    PyObject *es = PySequence_Tuple(edges);
    if (es == NULL)
        return -1;
    int rc = 0;
    for (Py_ssize_t e = 0; rc == 0 && e < PyTuple_GET_SIZE(es); e++) {
        int a, b;
        if (!PyArg_Parse(PyTuple_GET_ITEM(es, e), "(ii)", &a, &b)) {
            rc = -1;
        } else if (a < 0 || a >= n || b < 0 || b >= n) {
            PyErr_Format(PyExc_ValueError, "edge (%d, %d) has an endpoint outside 0..%d",
                         a, b, n - 1);
            rc = -1;
        } else if (a != b) {
            mult[a * n + b]++;
            mult[b * n + a]++;
            adj[a] |= (size_t)1 << b;
            adj[b] |= (size_t)1 << a;
        }
    }
    Py_DECREF(es);
    return rc;
}

/* A kept plan mask: its sum is sums[p] + scale * d_k, with p the mask less
   its top vertex k, and must lie in low..high. */
typedef struct {
    size_t m, p;
    long long low, high;
} Row;

typedef struct {
    int n, size;
    long long scale, total;
    /* per level k: its box lo[k]..hi[k], the suffix sums of the box from k,
       its vertex's place in an output and the shift from d_k to its code */
    const long long *lo, *hi, *suf_lo, *suf_hi, *at, *shift;
    /* level k < n - 1: rows[row_at[k]] up to rows[row_at[k + 1]] */
    const Row *rows;
    const size_t *row_at;
    long long *sums;
    /* the row being built: one big-endian field of size bytes per vertex */
    unsigned char *codes;
    PyObject *out; /* at most limit + 1 outputs */
    Py_ssize_t limit;
} Search;

/* Write code to the size bytes at field, big-endian. */
static void put(unsigned char *field, int size, long long code)
{
    for (int i = size - 1; i >= 0; i--) {
        field[i] = (unsigned char)code;
        code >>= 8;
    }
}

/* Append the row in s->codes as one int.  Returns -1, with an exception
   set on an error and none once the outputs pass the limit, else 0. */
static int emit(const Search *s)
{
    PyObject *row = _PyLong_FromByteArray(s->codes, (size_t)s->n * s->size, 0, 0);
    int rc = row == NULL ? -1 : PyList_Append(s->out, row);
    Py_XDECREF(row);
    return rc < 0 || PyList_GET_SIZE(s->out) > s->limit ? -1 : 0;
}

/* Assign vertex k < n - 1; the last vertex takes the rest of the total.
   Every subset whose top vertex is k is decided once d_k is chosen, so the
   bounds the plan keeps among them are checked at once.  d_k runs over the
   values that leave the rest of the total within the box of the vertices
   after k.  Each row's sum grows with d_k, so its low bound holds from some
   value on and its high bound up to some value: the values that pass are
   one interval, found by scanning in from each end with one bound alone.
   sums[m] holds scale * d_m, so the inner loops need no multiply; at
   k = n - 2 nothing reads them, so they are only checked.  Returns -1 when
   emit does, else 0. */
static int place(const Search *s, int k, long long partial)
{
    const Row *first = s->rows + s->row_at[k], *end = s->rows + s->row_at[k + 1], *r;
    long long *sums = s->sums, scale = s->scale, rest = s->total - partial;
    long long from = rest - s->suf_hi[k + 1], to = rest - s->suf_lo[k + 1];
    if (from < s->lo[k])
        from = s->lo[k];
    if (to > s->hi[k])
        to = s->hi[k];
    for (; from <= to; from++) {
        long long step = scale * from;
        for (r = first; r < end && sums[r->p] + step >= r->low; r++)
            ;
        if (r == end)
            break;
    }
    for (; to >= from; to--) {
        long long step = scale * to;
        for (r = first; r < end && sums[r->p] + step <= r->high; r++)
            ;
        if (r == end)
            break;
    }
    unsigned char *field = s->codes + s->at[k] * s->size;
    if (k == s->n - 2) {
        unsigned char *last = s->codes + s->at[k + 1] * s->size;
        for (long long dv = from; dv <= to; dv++) {
            put(field, s->size, dv + s->shift[k]);
            put(last, s->size, rest - dv + s->shift[k + 1]);
            if (emit(s) < 0)
                return -1;
        }
        return 0;
    }
    for (long long dv = from; dv <= to; dv++) {
        long long step = scale * dv;
        for (r = first; r < end; r++)
            sums[r->m] = sums[r->p] + step;
        put(field, s->size, dv + s->shift[k]);
        if (place(s, k + 1, partial + dv) < 0)
            return -1;
    }
    return 0;
}

/* Read the plan, one byte per mask, into the rows of s with the bounds of
   the mode: base(m) -+ scale/2 * cut(m) on a checked mask m, from the
   scaled polarization base and the multiplicities of read_edges.  The
   box, its suffix sums, the total and sums[0] = 0 must be in s.  Only the masks below
   level n - 1 are read, as the search checks nothing under the last
   vertex; make_plan keeps each kept mask's prefix.  A bound that every d_m
   the search reaches meets is dropped, and a mask left with none gets the
   bounds of that reach, which never cut, or no row at level n - 2, where
   nothing reads its sum.  Returns -1 with an exception set, else 0; on
   success the caller frees the rows and offsets (one block at
   s->row_at). */
static int load_plan(Search *s, const unsigned char *plan, const long long *base,
                     const long long *mult, int v0, int mode)
{
    int n = s->n;
    size_t count = 0;
    for (size_t m = 1; m < (size_t)1 << (n - 1); m++)
        count += (plan[m] & KEPT) != 0;
    size_t *row_at = PyMem_Malloc((size_t)n * sizeof(size_t) + count * sizeof(Row));
    if (row_at == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Row *rows = (Row *)(row_at + n);
    size_t nrows = 0;
    int stable = mode == MODE_STABLE, quasi = mode == MODE_QUASISTABLE;
    long long *sums = s->sums, scale = s->scale, half = scale / 2, whole = scale * s->total;
    long long from_hi = whole - scale * s->suf_hi[0], from_lo = whole - scale * s->suf_lo[0];
    for (int k = 0; k < n - 1; k++) {
        size_t bit = (size_t)1 << k;
        row_at[k] = nrows;
        for (size_t m = bit; m < bit << 1; m++) {
            if (!(plan[m] & KEPT))
                continue;
            /* every d_m the search reaches lies in reach_lo..reach_hi
               (scaled), from the box on m and on its complement */
            long long m_lo = 0, m_hi = 0, sum = 0;
            for (int v = 0; v <= k; v++)
                if ((m >> v) & 1) {
                    m_lo += scale * s->lo[v];
                    m_hi += scale * s->hi[v];
                    sum += base[v];
                }
            /* cut(m) is cut(m - k) plus k's edges out of m less those into
               it, as in _kernel_py.build_tables; sums holds the cut of each
               kept mask until the search writes its sum there */
            long long cut = sums[m ^ bit];
            for (int w = 0; w < n; w++)
                cut += (m >> w) & 1 ? -mult[k * n + w] : mult[k * n + w];
            sums[m] = cut;
            long long reach_lo = m_lo > from_hi + m_hi ? m_lo : from_hi + m_hi;
            long long reach_hi = m_hi < from_lo + m_lo ? m_hi : from_lo + m_lo;
            /* strict bounds on proper subsets: quasistable from below on
               those that hold v0 and from above on the others, stable both
               ways on all */
            int holds_v0 = (m >> v0) & 1;
            Row r = {m, m ^ bit, reach_lo, reach_hi};
            if (plan[m] & CHECKED) {
                long long low = sum - half * cut + (stable || (quasi && holds_v0));
                long long high = sum + half * cut - (stable || (quasi && !holds_v0));
                if (low > r.low)
                    r.low = low;
                if (high < r.high)
                    r.high = high;
            }
            if (k < n - 2 || r.low > reach_lo || r.high < reach_hi)
                rows[nrows++] = r;
        }
    }
    row_at[n - 1] = nrows;
    s->row_at = row_at;
    s->rows = rows;
    return 0;
}

PyDoc_STRVAR(box_enumerate_doc,
"box_enumerate(n, edges, base, scale, v0, mode, at, layout, limit) -> list of ints\n\n"
"Integer vectors in the box with total sum(base) / scale that satisfy the\n"
"per-subset bounds of the graph on n vertices with the given edges (index\n"
"pairs) and scaled polarization base, as in jacgraph._kernel_py.box_enumerate,\n"
"each with the value of vertex k at position at[k], for at a permutation\n"
"of range(n), packed into one int in layout, a jacgraph._kernel.Layout in\n"
"output order that gives vertex k the box layout.lo[at[k]]..layout.hi[at[k]].\n"
"The plan and the bounds on its masks are built within the call.  The\n"
"search stops once it holds limit + 1 outputs, which it returns.  Raises\n"
"ValueError unless scale is positive and divides sum(base).");

static PyObject *box_enumerate(PyObject *self, PyObject *args)
{
    PyObject *edges, *base, *at, *layout, *out = NULL;
    int n, v0, mode;
    long long scale;
    Py_ssize_t limit;

    if (!PyArg_ParseTuple(args, "iOOLiiOOn:box_enumerate", &n, &edges, &base, &scale, &v0,
                          &mode, &at, &layout, &limit))
        return NULL;
    if (n < 1 || n > MAX_VERTICES)
        return PyErr_Format(PyExc_ValueError, "n = %d outside 1..%d", n, MAX_VERTICES);
    if (v0 < 0 || v0 >= n)
        return PyErr_Format(PyExc_ValueError, "v0 = %d outside 0..%d", v0, n - 1);
    if (scale <= 0)
        return PyErr_Format(PyExc_ValueError, "scale = %lld is not positive", scale);
    /* the fields of _kernel.Layout: lo, hi, size, shift, unit, origin */
    if (!PyTuple_Check(layout) || PyTuple_GET_SIZE(layout) != 6)
        return PyErr_Format(PyExc_TypeError, "layout: expected a tuple of its six fields");
    int field;
    if (!PyArg_Parse(PyTuple_GET_ITEM(layout, 2), "i", &field))
        return NULL;
    if (field != 1 && field != 2 && field != 4)
        return PyErr_Format(PyExc_ValueError, "layout: field size %d is not 1, 2 or 4", field);
    size_t size = (size_t)1 << n, adj[MAX_VERTICES] = {0};
    long long mult[MAX_VERTICES * MAX_VERTICES] = {0};
    /* the int64 arrays, sums on the masks without the last vertex first,
       then the layout's lo, hi and shift in output order, then the plan's
       bytes */
    long long *buf = PyMem_Malloc((size / 2 + 10 * ((size_t)n + 1)) * sizeof(long long) + size);
    if (buf == NULL)
        return PyErr_NoMemory();
    long long *sums = buf, *clo = sums + size / 2, *chi = clo + n + 1;
    long long *suf_lo = chi + n + 1, *suf_hi = suf_lo + n + 1, *shift = suf_hi + n + 1;
    long long *cat = shift + n + 1, *cbase = cat + n + 1, *out_lo = cbase + n + 1;
    long long *out_hi = out_lo + n + 1, *out_shift = out_hi + n + 1;
    unsigned char *plan = (unsigned char *)(out_shift + n + 1), codes[4 * MAX_VERTICES];
    Search s = {.n = n, .size = field, .scale = scale, .lo = clo, .hi = chi, .suf_lo = suf_lo,
                .suf_hi = suf_hi, .at = cat, .shift = shift, .sums = sums, .codes = codes,
                .limit = limit};

    if (load_int64s(base, n, cbase, "base") < 0
        || load_int64s(at, n, cat, "at") < 0
        || load_int64s(PyTuple_GET_ITEM(layout, 0), n, out_lo, "layout.lo") < 0
        || load_int64s(PyTuple_GET_ITEM(layout, 1), n, out_hi, "layout.hi") < 0
        || load_int64s(PyTuple_GET_ITEM(layout, 3), n, out_shift, "layout.shift") < 0)
        goto done;
    unsigned char placed[MAX_VERTICES] = {0};
    for (int k = 0; k < n; k++) {
        if (cat[k] < 0 || cat[k] >= n || placed[cat[k]]++) {
            PyErr_SetString(PyExc_ValueError, "at: not a permutation of range(n)");
            goto done;
        }
        clo[k] = out_lo[cat[k]];
        chi[k] = out_hi[cat[k]];
        shift[k] = out_shift[cat[k]];
    }
    suf_lo[n] = suf_hi[n] = 0;
    for (int k = n - 1; k >= 0; k--) {
        suf_lo[k] = suf_lo[k + 1] + clo[k];
        suf_hi[k] = suf_hi[k + 1] + chi[k];
    }
    if (read_edges(n, edges, adj, mult) < 0)
        goto done;
    long long whole = 0;
    for (int v = 0; v < n; v++)
        whole += cbase[v];
    if (whole % scale != 0) {
        PyErr_Format(PyExc_ValueError, "base sums to %lld, not a multiple of scale = %lld",
                     whole, scale);
        goto done;
    }
    s.total = whole / scale;
    make_plan(n, adj, plan);
    sums[0] = 0;
    if (load_plan(&s, plan, cbase, mult, v0, mode) < 0)
        goto done;
    out = PyList_New(0);
    if (out != NULL && suf_lo[0] <= s.total && suf_hi[0] >= s.total) {
        s.out = out;
        put(codes, s.size, s.total + shift[0]); /* all of it, when there is one vertex */
        if ((n == 1 ? emit(&s) : place(&s, 0, 0)) < 0 && PyErr_Occurred())
            Py_CLEAR(out);
    }
    PyMem_Free((void *)s.row_at);
done:
    PyMem_Free(buf);
    return out;
}

static PyMethodDef methods[] = {
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
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntMacro(m, MAX_VERTICES) < 0)
        Py_CLEAR(m);
    return m;
}
