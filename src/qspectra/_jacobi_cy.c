/* Compiled cyclic Jacobi kernel.
 *
 * Twin of _jacobi_py.jacobi_sweeps: identical rotation order, expression
 * shapes, and convergence test, compiled with -ffp-contract=off so both
 * kernels produce bit-identical diagonals.
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

PyDoc_STRVAR(jacobi_sweeps_doc,
"jacobi_sweeps(a)\n--\n\n"
"Diagonalize a symmetric C-contiguous float64 matrix in place.\n\n"
"Returns (sweeps, converged, off_frobenius, max_offdiag).");

static PyObject *
jacobi_sweeps(PyObject *Py_UNUSED(module), PyObject *arg)
{
    Py_buffer view;
    if (PyObject_GetBuffer(arg, &view,
                           PyBUF_WRITABLE | PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return NULL;
    if (view.ndim != 2 || view.shape[0] != view.shape[1]
            || strcmp(view.format, "d") != 0) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_ValueError,
                        "expected a square 2-D float64 buffer");
        return NULL;
    }
    Py_ssize_t n = view.shape[0];
    if (n < 2) {
        PyBuffer_Release(&view);
        return Py_BuildValue("(nOdd)", (Py_ssize_t)0, Py_True, 0.0, 0.0);
    }
    double *a = view.buf;
    double fro_sq = 0.0, off_sq, threshold_sq, max_off;
    Py_ssize_t sweeps = 0;

    Py_BEGIN_ALLOW_THREADS
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
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&view);
    return Py_BuildValue("(nOdd)", sweeps,
                         off_sq <= threshold_sq ? Py_True : Py_False,
                         sqrt(off_sq), max_off);
}

static PyMethodDef methods[] = {
    {"jacobi_sweeps", jacobi_sweeps, METH_O, jacobi_sweeps_doc},
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
