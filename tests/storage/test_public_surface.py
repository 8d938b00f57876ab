"""The curated public surface of ``repro.storage`` must not drift.

``__all__`` is the contract: everything in it must resolve and be
importable from the package root, and every public attribute the package
actually exposes must be either listed or a submodule — so an export
added without updating ``__all__`` (or vice versa) fails here instead of
surfacing as an undocumented API.
"""

from __future__ import annotations

import inspect

import repro
import repro.serving as serving
import repro.storage as storage
from repro.storage import backends

#: The intended top-level surface, spelled out so a drive-by export
#: changes this file too (review bait, on purpose).
EXPECTED_STORAGE_ALL = {
    "CacheStats",
    "Column",
    "ColumnType",
    "ConstraintViolation",
    "Database",
    "DuplicateKeyError",
    "Expr",
    "ForeignKey",
    "ForeignKeyError",
    "Mutation",
    "NotNullViolation",
    "Query",
    "QueryCache",
    "SchemaError",
    "Table",
    "TableSchema",
    "TypeMismatchError",
    "UnknownColumnError",
    "UnknownTableError",
    "col",
    "dump_canonical",
    "lit",
    "open_database",
}

EXPECTED_SERVING_ALL = {
    "AdmissionGate",
    "OpOutcome",
    "PlatformServer",
    "ServerClosed",
    "ServingConfig",
    "ServingStats",
    "WriteOp",
    "apply_ops",
    "http_request",
}

EXPECTED_BACKENDS_ALL = {
    "Mutation",
    "WalBackend",
    "open_database",
}


def test_storage_all_matches_expected():
    assert set(storage.__all__) == EXPECTED_STORAGE_ALL
    assert storage.__all__ == sorted(storage.__all__), "keep __all__ sorted"


def test_serving_all_matches_expected():
    assert set(serving.__all__) == EXPECTED_SERVING_ALL
    assert serving.__all__ == sorted(serving.__all__), "keep __all__ sorted"


def test_serving_exports_resolve_lazily():
    # Only ServingConfig is imported eagerly (it feeds RuntimeConfig);
    # the rest resolve through the PEP 562 hook without import cycles.
    for name in serving.__all__:
        assert getattr(serving, name) is not None
    assert set(serving.__all__) <= set(dir(serving))


def test_importing_repro_does_not_pull_the_server():
    import subprocess
    import sys

    code = "import repro, sys; assert 'repro.serving.server' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_serving_lazy_attr_errors_cleanly():
    import pytest

    with pytest.raises(AttributeError, match="no attribute"):
        serving.NoSuchThing


def test_backends_all_matches_expected():
    assert set(backends.__all__) == EXPECTED_BACKENDS_ALL
    assert backends.__all__ == sorted(backends.__all__), "keep __all__ sorted"


def test_every_export_resolves():
    for name in storage.__all__:
        assert getattr(storage, name) is not None
    for name in backends.__all__:
        assert getattr(backends, name) is not None


def test_no_unlisted_public_attributes():
    listed = set(storage.__all__)
    for name, value in vars(storage).items():
        if name.startswith("_") or name in listed:
            continue
        assert inspect.ismodule(value), (
            f"repro.storage.{name} is public but not in __all__ "
            f"(and not a submodule)"
        )


def test_repro_root_exports_runtime_config():
    assert "RuntimeConfig" in repro.__all__
    assert "ServingConfig" in repro.__all__
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_lazy_backend_attr_errors_cleanly():
    import pytest

    with pytest.raises(AttributeError, match="no attribute"):
        backends.NoSuchBackend
