"""Build hooks for the optional compiled eigensolver kernel.

The package is fully functional without the extension (a pure-Python kernel is
selected at import time), so a failed compile downgrades to a warning instead
of aborting the install.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, etc.
            print(f"warning: compiled kernel skipped ({exc}); "
                  "pure-Python fallback will be used", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: building {ext.name} failed ({exc}); "
                  "pure-Python fallback will be used", file=sys.stderr)


def extensions():
    # -ffp-contract=off keeps the compiled kernel bit-identical to the
    # pure-Python one (no FMA fusion); do not add -ffast-math.
    flags = ["-O3", "-ffp-contract=off"]
    try:
        from Cython.Build import cythonize
    except ImportError:
        print("warning: Cython not available; building the kernel from the "
              "committed _jacobi_cy.c", file=sys.stderr)
        return [Extension("qspectra._jacobi_cy", ["src/qspectra/_jacobi_cy.c"],
                          extra_compile_args=flags)]
    ext = Extension("qspectra._jacobi_cy", ["src/qspectra/_jacobi_cy.pyx"],
                    extra_compile_args=flags)
    return cythonize([ext], compiler_directives={"language_level": "3"})


setup(ext_modules=extensions(), cmdclass={"build_ext": OptionalBuildExt})
