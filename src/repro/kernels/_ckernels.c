/* Compiled page-op kernels: the `compiled` backend's hot functions.
 *
 * Mirrors the pure-Python reference in repro/kernels/pure.py exactly --
 * word-granular (4-byte) run detection with memcmp, in-place patching,
 * byte-equality twin compare, and an invalid-page scan.  Built on demand
 * by tools/build_kernels.py; get_backend() picks the numpy backend
 * when this module is absent, so only compiled.py imports it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
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

/* Append runs for one page (cur/twin of length n) to list `out` as
 * (offset, bytes) tuples.  Returns 0 on success, -1 on error. */
static int
diff_one_page(const unsigned char *cur, const unsigned char *twin,
              Py_ssize_t n, PyObject *out)
{
    Py_ssize_t off = 0;
    while (off < n) {
        if (memcmp(cur + off, twin + off, WORD) != 0) {
            Py_ssize_t start = off;
            off += WORD;
            while (off < n && memcmp(cur + off, twin + off, WORD) != 0)
                off += WORD;
            {
                PyObject *data = PyBytes_FromStringAndSize(
                    (const char *)(cur + start), off - start);
                if (data == NULL)
                    return -1;
                PyObject *run = Py_BuildValue("(nN)", start, data);
                if (run == NULL)
                    return -1;
                if (PyList_Append(out, run) != 0) {
                    Py_DECREF(run);
                    return -1;
                }
                Py_DECREF(run);
            }
        }
        else {
            off += WORD;
        }
    }
    return 0;
}

static PyObject *
runs_tuple_for_page(const unsigned char *cur, const unsigned char *twin,
                    Py_ssize_t n)
{
    if (memcmp(cur, twin, (size_t)n) == 0)
        return PyTuple_New(0);
    PyObject *acc = PyList_New(0);
    if (acc == NULL)
        return NULL;
    if (diff_one_page(cur, twin, n, acc) != 0) {
        Py_DECREF(acc);
        return NULL;
    }
    PyObject *runs = PyList_AsTuple(acc);
    Py_DECREF(acc);
    return runs;
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
    PyObject *runs = NULL;
    if (cur.len != twin.len || cur.len % WORD != 0)
        PyErr_SetString(PyExc_ValueError, "buffer sizes invalid for make_diff");
    else
        runs = runs_tuple_for_page((const unsigned char *)cur.buf,
                                   (const unsigned char *)twin.buf, cur.len);
    PyBuffer_Release(&cur);
    PyBuffer_Release(&twin);
    return runs;
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
        PyObject *runs = NULL;
        if (cur.len != twin.len || cur.len % WORD != 0)
            PyErr_SetString(PyExc_ValueError,
                            "buffer sizes invalid for make_diff_batch");
        else
            runs = runs_tuple_for_page((const unsigned char *)cur.buf,
                                       (const unsigned char *)twin.buf,
                                       cur.len);
        PyBuffer_Release(&cur);
        PyBuffer_Release(&twin);
        if (runs == NULL)
            goto fail;
        PyList_SET_ITEM(out, i, runs);
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

static Py_ssize_t
apply_runs(Py_buffer *page, PyObject *runs)
{
    PyObject *seq = PySequence_Fast(runs, "runs must be a sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t written = 0;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *run = PySequence_Fast_GET_ITEM(seq, i);
        Py_ssize_t offset;
        PyObject *data_obj;
        if (!PyArg_ParseTuple(run, "nO", &offset, &data_obj))
            goto fail;
        char *data;
        Py_ssize_t len;
        if (PyBytes_AsStringAndSize(data_obj, &data, &len) != 0)
            goto fail;
        if (offset < 0 || offset + len > page->len) {
            PyErr_SetString(PyExc_ValueError, "run exceeds page bounds");
            goto fail;
        }
        memcpy((unsigned char *)page->buf + offset, data, (size_t)len);
        written += len;
    }
    Py_DECREF(seq);
    return written;
fail:
    Py_DECREF(seq);
    return -1;
}

static PyObject *
k_apply_diff(PyObject *self, PyObject *args)
{
    PyObject *page_obj, *runs;
    if (!PyArg_ParseTuple(args, "OO", &page_obj, &runs))
        return NULL;
    Py_buffer page;
    if (PyObject_GetBuffer(page_obj, &page, PyBUF_WRITABLE) != 0)
        return NULL;
    Py_ssize_t written = apply_runs(&page, runs);
    PyBuffer_Release(&page);
    if (written < 0)
        return NULL;
    return PyLong_FromSsize_t(written);
}

static PyObject *
k_apply_diff_batch(PyObject *self, PyObject *args)
{
    PyObject *page_obj, *runs_list;
    if (!PyArg_ParseTuple(args, "OO", &page_obj, &runs_list))
        return NULL;
    Py_buffer page;
    if (PyObject_GetBuffer(page_obj, &page, PyBUF_WRITABLE) != 0)
        return NULL;
    PyObject *seq = PySequence_Fast(runs_list, "runs_list must be a sequence");
    if (seq == NULL) {
        PyBuffer_Release(&page);
        return NULL;
    }
    Py_ssize_t total = 0;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t written = apply_runs(&page, PySequence_Fast_GET_ITEM(seq, i));
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
     "make_diff(current, twin) -> tuple of (offset, bytes) runs"},
    {"make_diff_batch", k_make_diff_batch, METH_VARARGS,
     "make_diff_batch(currents, twins) -> list of run tuples"},
    {"apply_diff", k_apply_diff, METH_VARARGS,
     "apply_diff(page_view, runs) -> bytes written"},
    {"apply_diff_batch", k_apply_diff_batch, METH_VARARGS,
     "apply_diff_batch(page_view, runs_list) -> bytes written"},
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
    return PyModule_Create(&ckernels_module);
}
