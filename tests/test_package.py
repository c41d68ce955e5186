import importlib
import json
import os

import pytest

import ffhyper

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_public_name_is_its_submodule_object():
    assert len(ffhyper.__all__) == 59 and ffhyper.__all__ == sorted(ffhyper.__all__)
    for name in ffhyper.__all__:
        obj = getattr(ffhyper, name)
        assert obj.__module__.startswith("ffhyper.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ffhyper.no_such_name
    with pytest.raises(ImportError):
        from ffhyper import no_such_name  # noqa: F401


FRESH = """import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("ffhyper"))
import ffhyper
package = loaded()
from ffhyper import Field
F = Field.from_order(9)
field = loaded()
namespace = {}
exec("from ffhyper import *", namespace)
print(json.dumps([package, field, F._exp_np is None,
                  sorted(n for n in namespace if not n.startswith("__"))]))
"""


def test_the_package_and_a_field_load_lazily(python_child):
    p = python_child(FRESH)
    assert p.returncode == 0, p.stderr
    package, field, tables_unbuilt, star = json.loads(p.stdout)
    assert package == ["ffhyper"]
    assert field == ["ffhyper", "ffhyper.errors", "ffhyper.field"]
    assert tables_unbuilt
    assert star == ffhyper.__all__


def test_pyproject_version_is_the_package_version():
    # __version__ is part of every result-cache key
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == ffhyper.__version__
