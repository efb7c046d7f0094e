/* Compiled cyclic Jacobi kernel.
 *
 * Twin of _jacobi_py.jacobi_sweeps and _jacobi_py.jacobi_stack: identical
 * rotation order, expression shapes, and convergence test, compiled with
 * -ffp-contract=off so both kernels produce bit-identical diagonals. Both
 * entry points run solve_buffer(), which runs solve() once per matrix;
 * jacobi_sweeps is its stack of one. The library calls jacobi_stack only.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

#define MAX_SWEEPS 50
#define TERMINATION_REL 1e-12

static double
offdiag_sq(const double *a, Py_ssize_t n)
{
    double s = 0.0;
    for (Py_ssize_t p = 0; p < n - 1; p++) {
        for (Py_ssize_t q = p + 1; q < n; q++) {
            double v = a[p * n + q];
            s += 2.0 * (v * v);
        }
    }
    return s;
}

typedef struct {
    Py_ssize_t sweeps;
    int converged;
    double off_frobenius, max_offdiag;
} SolveResult;

/* Diagonalize one row-major n x n matrix in place. Touches no Python
 * object, so it runs with the GIL released. */
static void
solve(double *a, Py_ssize_t n, SolveResult *r)
{
    double fro_sq = 0.0, off_sq, threshold_sq, max_off;
    Py_ssize_t sweeps = 0;

    if (n < 2) {
        *r = (SolveResult){0, 1, 0.0, 0.0};
        return;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        for (Py_ssize_t j = 0; j < n; j++) {
            double v = a[i * n + j];
            fro_sq += v * v;
        }
    }
    threshold_sq = (TERMINATION_REL * TERMINATION_REL) * fro_sq;
    off_sq = offdiag_sq(a, n);
    while (off_sq > threshold_sq && sweeps < MAX_SWEEPS) {
        sweeps += 1;
        for (Py_ssize_t p = 0; p < n - 1; p++) {
            for (Py_ssize_t q = p + 1; q < n; q++) {
                double apq = a[p * n + q];
                if (apq == 0.0)
                    continue;
                double app = a[p * n + p];
                double aqq = a[q * n + q];
                double theta = (aqq - app) / (2.0 * apq);
                double t;
                if (-1.0e150 < theta && theta < 1.0e150) {
                    t = 1.0 / (fabs(theta) + sqrt(theta * theta + 1.0));
                    if (theta < 0.0)
                        t = -t;
                }
                else {
                    /* asymptotic tangent; theta * theta would overflow */
                    t = 0.5 / theta;
                }
                double c = 1.0 / sqrt(t * t + 1.0);
                double s = t * c;
                for (Py_ssize_t i = 0; i < n; i++) {
                    double new_pi = c * a[p * n + i] - s * a[q * n + i];
                    double new_qi = s * a[p * n + i] + c * a[q * n + i];
                    a[p * n + i] = new_pi;
                    a[q * n + i] = new_qi;
                    a[i * n + p] = new_pi;
                    a[i * n + q] = new_qi;
                }
                /* pivot block set directly; the diagonal update form
                 * app - t*apq is the numerically stable one */
                a[p * n + p] = app - t * apq;
                a[q * n + q] = aqq + t * apq;
                a[p * n + q] = 0.0;
                a[q * n + p] = 0.0;
            }
        }
        off_sq = offdiag_sq(a, n);
    }
    max_off = 0.0;
    for (Py_ssize_t p = 0; p < n - 1; p++) {
        for (Py_ssize_t q = p + 1; q < n; q++) {
            double v = fabs(a[p * n + q]);
            if (v > max_off)
                max_off = v;
        }
    }
    r->sweeps = sweeps;
    r->converged = off_sq <= threshold_sq;
    r->off_frobenius = sqrt(off_sq);
    r->max_offdiag = max_off;
}

/* Diagonalize in place each matrix of arg, a C-contiguous, writable float64
 * buffer with ndim dimensions of which the last two are equal, and return
 * the list of their (sweeps, converged, off_frobenius, max_offdiag) tuples.
 * Any other buffer is refused, before any write, with ValueError(error). */
static PyObject *
solve_buffer(PyObject *arg, int ndim, const char *error)
{
    Py_buffer view;
    if (PyObject_GetBuffer(arg, &view,
                           PyBUF_WRITABLE | PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return NULL;
    if (view.ndim != ndim || view.shape[ndim - 2] != view.shape[ndim - 1]
            || strcmp(view.format, "d") != 0) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_ValueError, error);
        return NULL;
    }
    Py_ssize_t count = ndim == 2 ? 1 : view.shape[0], n = view.shape[ndim - 1];
    SolveResult *res = PyMem_New(SolveResult, count);
    if (res == NULL) {
        PyBuffer_Release(&view);
        return PyErr_NoMemory();
    }
    double *a = view.buf;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t b = 0; b < count; b++)
        solve(a + b * n * n, n, &res[b]);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&view);
    PyObject *out = PyList_New(count);
    for (Py_ssize_t b = 0; out != NULL && b < count; b++) {
        PyObject *item = Py_BuildValue("(nOdd)", res[b].sweeps,
                                       res[b].converged ? Py_True : Py_False,
                                       res[b].off_frobenius, res[b].max_offdiag);
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, b, item);
    }
    PyMem_Free(res);
    return out;
}

PyDoc_STRVAR(jacobi_sweeps_doc,
"jacobi_sweeps(a)\n--\n\n"
"Diagonalize a symmetric C-contiguous float64 matrix in place.\n\n"
"Returns (sweeps, converged, off_frobenius, max_offdiag).");

static PyObject *
jacobi_sweeps(PyObject *Py_UNUSED(module), PyObject *arg)
{
    PyObject *out = solve_buffer(arg, 2, "expected a square 2-D float64 buffer");
    PyObject *first = out == NULL ? NULL : PySequence_GetItem(out, 0);
    Py_XDECREF(out);
    return first;
}

PyDoc_STRVAR(jacobi_stack_doc,
"jacobi_stack(a)\n--\n\n"
"Diagonalize a C-contiguous float64 stack of symmetric matrices, shape\n"
"(B, n, n), in place.\n\n"
"Returns a list of B (sweeps, converged, off_frobenius, max_offdiag) tuples;\n"
"entry i is what jacobi_sweeps(a[i]) returns.");

static PyObject *
jacobi_stack(PyObject *Py_UNUSED(module), PyObject *arg)
{
    return solve_buffer(arg, 3, "expected a 3-D float64 buffer of square matrices");
}

static PyMethodDef methods[] = {
    {"jacobi_sweeps", jacobi_sweeps, METH_O, jacobi_sweeps_doc},
    {"jacobi_stack", jacobi_stack, METH_O, jacobi_stack_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_jacobi_cy",
    .m_doc = "Compiled cyclic Jacobi kernel, the twin of _jacobi_py.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__jacobi_cy(void)
{
    return PyModule_Create(&module);
}
