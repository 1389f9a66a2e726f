"""Public-API docstring checker.

Every symbol a user reaches through ``repro.baselines``, ``repro.core``,
``repro.linalg``, ``repro.pl``, ``repro.validation``, ``repro.versal``
or ``repro.workloads`` (their ``__all__`` exports)
must carry a docstring — classes and functions alike — and so must the public
methods and properties of exported classes.  An undocumented export
is an API the docs can't explain and ``help()`` can't introspect.

Run:  python tools/check_docstrings.py   (exit 1 on any violation)
"""

import functools
import inspect
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: Packages whose ``__all__`` exports are held to the docstring bar.
PACKAGES = (
    "repro.baselines",
    "repro.core",
    "repro.linalg",
    "repro.pl",
    "repro.validation",
    "repro.versal",
    "repro.workloads",
)


def _missing_in_class(cls, qualname):
    """Undocumented public methods/properties defined by ``cls`` itself
    (inherited and dunder members are the parent's problem)."""
    missing = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            target = member.fget
        elif isinstance(member, functools.cached_property):
            target = member.func
        elif isinstance(member, (staticmethod, classmethod)):
            target = member.__func__
        elif inspect.isfunction(member):
            target = member
        else:
            continue
        if target is not None and not inspect.getdoc(target):
            missing.append(f"{qualname}.{name}")
    return missing


def main():
    errors = []
    for package_name in PACKAGES:
        package = __import__(package_name, fromlist=["__all__"])
        exports = getattr(package, "__all__", None)
        if not exports:
            errors.append(f"{package_name} has no __all__")
            continue
        for name in exports:
            symbol = getattr(package, name, None)
            if symbol is None:
                errors.append(f"{package_name}.{name} is exported but "
                              f"missing")
                continue
            qualname = f"{package_name}.{name}"
            if not inspect.getdoc(symbol):
                errors.append(f"{qualname} has no docstring")
            if inspect.isclass(symbol):
                for entry in _missing_in_class(symbol, qualname):
                    errors.append(f"{entry} has no docstring")

    if errors:
        for error in errors:
            print(f"docstring error: {error}", file=sys.stderr)
        return 1
    total = sum(len(__import__(p, fromlist=["__all__"]).__all__)
                for p in PACKAGES)
    print(f"docstrings OK: {total} exported symbols documented across "
          f"{len(PACKAGES)} packages")
    return 0


if __name__ == "__main__":
    sys.exit(main())
