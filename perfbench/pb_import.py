"""Import the ``repro`` package from a checkout under one fixed name.

PBBS region ids are CRC hashes of the allocating call stack's
``co_filename:lineno`` pairs (``repro.mem.allocator.callpoint_id``), and
every profile fingerprint is built from those ids.  Imported the usual
way, ``co_filename`` is the absolute path of the checkout, so the same
commit simulates different inputs in different directories.

This finder loads ``repro`` from ``<checkout>/src`` but compiles every
module, and sets its ``__file__``, under :data:`FIXED_SRC`, a location
that exists on no disk.  Both sides of a comparison, from any directory,
then hash the same names.  Paths the package derives from ``__file__``
point there too, so the committed ``.profile_cache/`` fixture pile is
never found: every profile a run loads is one it computed.  Source
lines are registered with :mod:`linecache` and :mod:`inspect` under the
fixed name, so stack inspection finds each module without the disk.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import importlib.util
import inspect
import linecache
import sys
from pathlib import Path

__all__ = ["FIXED_SRC", "install", "source_root"]

#: The directory every ``repro`` module is compiled as living under.
FIXED_SRC = "/checkout/src"

PACKAGE = "repro"


def source_root(checkout: str | Path) -> Path:
    """``<checkout>/src``, after checking that it holds the package."""
    src = Path(checkout).resolve() / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise FileNotFoundError(
            f"no {PACKAGE} package under {src}; run from the root of a checkout"
        )
    return src


class _FixedNameLoader(importlib.machinery.SourceFileLoader):
    """Source loader that compiles under the fixed name, never from .pyc.

    A cached .pyc would get its ``co_filename`` rewritten to the real path
    on load, so bytecode caching is bypassed for this package.
    """

    def __init__(self, fullname: str, path: str, fixed_name: str) -> None:
        super().__init__(fullname, path)
        self.fixed_name = fixed_name

    def get_code(self, fullname: str):
        source = self.get_data(self.get_filename(fullname))
        text = source.decode("utf-8")
        linecache.cache[self.fixed_name] = (
            len(text),
            None,
            text.splitlines(True),
            self.fixed_name,
        )
        inspect.modulesbyfile[self.fixed_name] = fullname
        return compile(source, self.fixed_name, "exec", dont_inherit=True)


class _FixedNameFinder(importlib.abc.MetaPathFinder):
    def __init__(self, src: Path) -> None:
        self.src = src

    def find_spec(self, fullname, path=None, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        base = self.src.joinpath(*fullname.split("."))
        if (base / "__init__.py").is_file():
            real = base / "__init__.py"
            search = [str(base)]
        elif base.with_suffix(".py").is_file():
            real = base.with_suffix(".py")
            search = None
        else:
            return None
        fixed = f"{FIXED_SRC}/{real.relative_to(self.src).as_posix()}"
        loader = _FixedNameLoader(fullname, str(real), fixed)
        return importlib.util.spec_from_file_location(
            fullname, fixed, loader=loader, submodule_search_locations=search
        )


def install(checkout: str | Path) -> Path:
    """Route ``import repro`` to ``<checkout>/src`` under :data:`FIXED_SRC`.

    Must run before anything imports ``repro``.  Returns the source root.
    """
    if PACKAGE in sys.modules:
        raise RuntimeError(f"{PACKAGE} is already imported; install first")
    src = source_root(checkout)
    sys.meta_path.insert(0, _FixedNameFinder(src))
    return src
