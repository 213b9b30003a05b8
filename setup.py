"""Build script.

The compiled kernel (jacgraph._speedups, one hand-written C file) is
optional: when no C compiler works, the package installs without it and
falls back to the pure-Python kernel at import time.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Skip the extension instead of failing when no C compiler works."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            print(f"skipping compiled kernel: {exc}")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"skipping compiled kernel {ext.name}: {exc}")


setup(
    # each function starts on a cache line: the box search's `place` ran a
    # fifth slower when an edit above it shifted it by 16 bytes
    ext_modules=[
        Extension(
            "jacgraph._speedups",
            ["src/jacgraph/_speedups.c"],
            extra_compile_args=["-falign-functions=64"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
