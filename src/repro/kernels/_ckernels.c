/* Compiled page-op kernels: the `compiled` backend's hot functions.
 *
 * Mirrors the pure-Python reference in repro/kernels/pure.py exactly --
 * word-granular (4-byte) run detection with memcmp straight into the
 * diff's wire encoding, in-place patching from that encoding,
 * byte-equality twin compare, and an invalid-page scan.  Built on demand
 * by tools/build_kernels.py; get_backend() picks the numpy backend
 * when this module is absent, so only compiled.py imports it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define WORD 4

/* ---- helpers ---------------------------------------------------------- */

static int
get_ro_buffer(PyObject *obj, Py_buffer *view, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_SIMPLE) != 0) {
        PyErr_Format(PyExc_TypeError, "%s does not expose a C-contiguous buffer", what);
        return -1;
    }
    return 0;
}

/* The wire encoding (repro/kernels/interface.py): a little-endian uint32
 * run count, then per run an int32 offset, an int32 length and the run's
 * bytes.  Written byte by byte so the layout does not depend on the host. */
#define COUNT_BYTES 4
#define HEADER_BYTES 8

static PyObject *empty_diff;  /* the shared encoding of "no runs" */

static void
put_le32(unsigned char *p, uint32_t v)
{
    p[0] = (unsigned char)v;
    p[1] = (unsigned char)(v >> 8);
    p[2] = (unsigned char)(v >> 16);
    p[3] = (unsigned char)(v >> 24);
}

static uint32_t
get_le32(const unsigned char *p)
{
    return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
        | ((uint32_t)p[3] << 24);
}

static int
word_differs(const unsigned char *cur, const unsigned char *twin)
{
    uint32_t a, b;
    memcpy(&a, cur, WORD);
    memcpy(&b, twin, WORD);
    return a != b;
}

/* Run bounds (start, end) found by the scan, reused across calls: the GIL
 * serialises them.  A page of n bytes has at most n / (2 * WORD) + 1 runs,
 * because two runs are separated by at least one unchanged word. */
static Py_ssize_t *bounds;
static Py_ssize_t bounds_cap;

/* Encode one page's diff: one scan records the runs and sizes the result
 * exactly, then the runs are copied into it. */
static PyObject *
packed_diff_for_page(const unsigned char *cur, const unsigned char *twin,
                     Py_ssize_t n)
{
    if (n > INT32_MAX) {
        PyErr_SetString(PyExc_ValueError, "page too large for make_diff");
        return NULL;
    }
    if (memcmp(cur, twin, (size_t)n) == 0) {
        Py_INCREF(empty_diff);
        return empty_diff;
    }
    Py_ssize_t need = 2 * (n / (2 * WORD) + 1);
    if (need > bounds_cap) {
        Py_ssize_t *grown = PyMem_Realloc(bounds, (size_t)need * sizeof *bounds);
        if (grown == NULL)
            return PyErr_NoMemory();
        bounds = grown;
        bounds_cap = need;
    }
    Py_ssize_t nruns = 0, size = COUNT_BYTES, off = 0;
    while (off < n) {
        /* Skip equal stretches 16 bytes at a time. */
        while (off + 16 <= n && memcmp(cur + off, twin + off, 16) == 0)
            off += 16;
        while (off < n && !word_differs(cur + off, twin + off))
            off += WORD;
        if (off >= n)
            break;
        Py_ssize_t start = off;
        off += WORD;
        while (off < n && word_differs(cur + off, twin + off))
            off += WORD;
        bounds[2 * nruns] = start;
        bounds[2 * nruns + 1] = off;
        nruns++;
        size += HEADER_BYTES + (off - start);
    }
    PyObject *out = PyBytes_FromStringAndSize(NULL, size);
    if (out == NULL)
        return NULL;
    unsigned char *p = (unsigned char *)PyBytes_AS_STRING(out);
    put_le32(p, (uint32_t)nruns);
    p += COUNT_BYTES;
    for (Py_ssize_t i = 0; i < nruns; i++) {
        Py_ssize_t start = bounds[2 * i], len = bounds[2 * i + 1] - start;
        put_le32(p, (uint32_t)start);
        put_le32(p + 4, (uint32_t)len);
        memcpy(p + HEADER_BYTES, cur + start, (size_t)len);
        p += HEADER_BYTES + len;
    }
    return out;
}

/* ---- make_diff / make_diff_batch -------------------------------------- */

static PyObject *
k_make_diff(PyObject *self, PyObject *args)
{
    PyObject *cur_obj, *twin_obj;
    if (!PyArg_ParseTuple(args, "OO", &cur_obj, &twin_obj))
        return NULL;
    Py_buffer cur, twin;
    if (get_ro_buffer(cur_obj, &cur, "current") != 0)
        return NULL;
    if (get_ro_buffer(twin_obj, &twin, "twin") != 0) {
        PyBuffer_Release(&cur);
        return NULL;
    }
    PyObject *packed = NULL;
    if (cur.len != twin.len || cur.len % WORD != 0)
        PyErr_SetString(PyExc_ValueError, "buffer sizes invalid for make_diff");
    else
        packed = packed_diff_for_page((const unsigned char *)cur.buf,
                                      (const unsigned char *)twin.buf,
                                      cur.len);
    PyBuffer_Release(&cur);
    PyBuffer_Release(&twin);
    return packed;
}

static PyObject *
k_make_diff_batch(PyObject *self, PyObject *args)
{
    PyObject *curs, *twins;
    if (!PyArg_ParseTuple(args, "OO", &curs, &twins))
        return NULL;
    PyObject *cur_seq = PySequence_Fast(curs, "currents must be a sequence");
    if (cur_seq == NULL)
        return NULL;
    PyObject *twin_seq = PySequence_Fast(twins, "twins must be a sequence");
    if (twin_seq == NULL) {
        Py_DECREF(cur_seq);
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(cur_seq);
    PyObject *out = PyList_New(n);
    if (out == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_buffer cur, twin;
        if (get_ro_buffer(PySequence_Fast_GET_ITEM(cur_seq, i), &cur,
                          "currents[i]") != 0)
            goto fail;
        if (get_ro_buffer(PySequence_Fast_GET_ITEM(twin_seq, i), &twin,
                          "twins[i]") != 0) {
            PyBuffer_Release(&cur);
            goto fail;
        }
        PyObject *packed = NULL;
        if (cur.len != twin.len || cur.len % WORD != 0)
            PyErr_SetString(PyExc_ValueError,
                            "buffer sizes invalid for make_diff_batch");
        else
            packed = packed_diff_for_page((const unsigned char *)cur.buf,
                                          (const unsigned char *)twin.buf,
                                          cur.len);
        PyBuffer_Release(&cur);
        PyBuffer_Release(&twin);
        if (packed == NULL)
            goto fail;
        PyList_SET_ITEM(out, i, packed);
    }
    Py_DECREF(cur_seq);
    Py_DECREF(twin_seq);
    return out;
fail:
    Py_DECREF(cur_seq);
    Py_DECREF(twin_seq);
    Py_XDECREF(out);
    return NULL;
}

/* ---- apply_diff / apply_diff_batch ------------------------------------ */

/* Decode one encoded diff onto `page`; returns bytes written or -1.  A
 * truncated encoding, trailing bytes or a run outside the page raise
 * ValueError before any byte of that run is written. */
static Py_ssize_t
apply_packed(Py_buffer *page, PyObject *packed_obj)
{
    Py_buffer packed;
    if (get_ro_buffer(packed_obj, &packed, "diff") != 0)
        return -1;
    const unsigned char *p = (const unsigned char *)packed.buf;
    Py_ssize_t left = packed.len, written = 0;
    const char *error = NULL;
    if (left < COUNT_BYTES) {
        error = "diff truncated";
        goto done;
    }
    uint32_t nruns = get_le32(p);
    p += COUNT_BYTES;
    left -= COUNT_BYTES;
    for (uint32_t i = 0; i < nruns; i++) {
        if (left < HEADER_BYTES) {
            error = "diff truncated";
            goto done;
        }
        Py_ssize_t offset = (int32_t)get_le32(p);
        Py_ssize_t len = (int32_t)get_le32(p + 4);
        p += HEADER_BYTES;
        left -= HEADER_BYTES;
        if (offset < 0 || len < 0 || offset > page->len - len) {
            error = "run exceeds page bounds";
            goto done;
        }
        if (left < len) {
            error = "diff truncated";
            goto done;
        }
        memcpy((unsigned char *)page->buf + offset, p, (size_t)len);
        p += len;
        left -= len;
        written += len;
    }
    if (left != 0)
        error = "diff has trailing bytes";
done:
    PyBuffer_Release(&packed);
    if (error != NULL) {
        PyErr_SetString(PyExc_ValueError, error);
        return -1;
    }
    return written;
}

static PyObject *
k_apply_diff(PyObject *self, PyObject *args)
{
    PyObject *page_obj, *packed;
    if (!PyArg_ParseTuple(args, "OO", &page_obj, &packed))
        return NULL;
    Py_buffer page;
    if (PyObject_GetBuffer(page_obj, &page, PyBUF_WRITABLE) != 0)
        return NULL;
    Py_ssize_t written = apply_packed(&page, packed);
    PyBuffer_Release(&page);
    if (written < 0)
        return NULL;
    return PyLong_FromSsize_t(written);
}

static PyObject *
k_apply_diff_batch(PyObject *self, PyObject *args)
{
    PyObject *page_obj, *packed_list;
    if (!PyArg_ParseTuple(args, "OO", &page_obj, &packed_list))
        return NULL;
    Py_buffer page;
    if (PyObject_GetBuffer(page_obj, &page, PyBUF_WRITABLE) != 0)
        return NULL;
    PyObject *seq = PySequence_Fast(packed_list, "packed_list must be a sequence");
    if (seq == NULL) {
        PyBuffer_Release(&page);
        return NULL;
    }
    Py_ssize_t total = 0;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t written = apply_packed(&page, PySequence_Fast_GET_ITEM(seq, i));
        if (written < 0) {
            total = -1;
            break;
        }
        total += written;
    }
    Py_DECREF(seq);
    PyBuffer_Release(&page);
    if (total < 0)
        return NULL;
    return PyLong_FromSsize_t(total);
}

/* ---- twin_compare / fault_scan ---------------------------------------- */

static PyObject *
k_twin_compare(PyObject *self, PyObject *args)
{
    PyObject *cur_obj, *twin_obj;
    if (!PyArg_ParseTuple(args, "OO", &cur_obj, &twin_obj))
        return NULL;
    Py_buffer cur, twin;
    if (get_ro_buffer(cur_obj, &cur, "current") != 0)
        return NULL;
    if (get_ro_buffer(twin_obj, &twin, "twin") != 0) {
        PyBuffer_Release(&cur);
        return NULL;
    }
    int same = (cur.len == twin.len
                && memcmp(cur.buf, twin.buf, (size_t)cur.len) == 0);
    PyBuffer_Release(&cur);
    PyBuffer_Release(&twin);
    return PyBool_FromLong(same);
}

static PyObject *
k_fault_scan(PyObject *self, PyObject *args)
{
    PyObject *valid_obj;
    Py_ssize_t lo, hi;
    if (!PyArg_ParseTuple(args, "Onn", &valid_obj, &lo, &hi))
        return NULL;
    Py_buffer valid;
    if (get_ro_buffer(valid_obj, &valid, "valid") != 0)
        return NULL;
    PyObject *out = PyList_New(0);
    if (out == NULL) {
        PyBuffer_Release(&valid);
        return NULL;
    }
    const unsigned char *v = (const unsigned char *)valid.buf;
    if (lo < 0)
        lo = 0;
    if (hi > valid.len)
        hi = valid.len;
    for (Py_ssize_t p = lo; p < hi; p++) {
        if (!v[p]) {
            PyObject *num = PyLong_FromSsize_t(p);
            if (num == NULL || PyList_Append(out, num) != 0) {
                Py_XDECREF(num);
                Py_DECREF(out);
                PyBuffer_Release(&valid);
                return NULL;
            }
            Py_DECREF(num);
        }
    }
    PyBuffer_Release(&valid);
    return out;
}

/* ---- module ----------------------------------------------------------- */

static PyMethodDef kernel_methods[] = {
    {"make_diff", k_make_diff, METH_VARARGS,
     "make_diff(current, twin) -> the diff's wire encoding (bytes)"},
    {"make_diff_batch", k_make_diff_batch, METH_VARARGS,
     "make_diff_batch(currents, twins) -> list of encoded diffs"},
    {"apply_diff", k_apply_diff, METH_VARARGS,
     "apply_diff(page_view, packed) -> bytes written"},
    {"apply_diff_batch", k_apply_diff_batch, METH_VARARGS,
     "apply_diff_batch(page_view, packed_list) -> bytes written"},
    {"twin_compare", k_twin_compare, METH_VARARGS,
     "twin_compare(current, twin) -> bool (True when identical)"},
    {"fault_scan", k_fault_scan, METH_VARARGS,
     "fault_scan(valid, lo, hi) -> list of invalid page indices"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckernels_module = {
    PyModuleDef_HEAD_INIT,
    "repro.kernels._ckernels",
    "Compiled page-op kernels (see repro/kernels/pure.py for semantics).",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    if (empty_diff == NULL) {
        static const char zero[COUNT_BYTES] = {0};
        empty_diff = PyBytes_FromStringAndSize(zero, COUNT_BYTES);
        if (empty_diff == NULL)
            return NULL;
    }
    return PyModule_Create(&ckernels_module);
}
