"""Builds the optional C eigensolver kernel, downgrading a failed compile to a
warning because the pure-Python twin serves without it."""

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


# -ffp-contract=off keeps the compiled kernel bit-identical to the pure-Python
# one (no FMA fusion); do not add -ffast-math.
KERNEL = Extension("qspectra._jacobi_cy", ["src/qspectra/_jacobi_cy.c"],
                   extra_compile_args=["-O3", "-ffp-contract=off"])

setup(ext_modules=[KERNEL], cmdclass={"build_ext": OptionalBuildExt})
