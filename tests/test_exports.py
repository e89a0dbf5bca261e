import ast
import importlib
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import polycrt

from conftest import REF_A, REF_M1, REF_M2

SRC = Path(polycrt.__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in polycrt.__all__ if not hasattr(polycrt, name)]
    assert missing == []


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from polycrt import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(polycrt.__all__)


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'polycrt' has no attribute 'nope'"):
        polycrt.nope


def test_every_import_is_used():
    unused = []
    package = sorted(Path(polycrt.__file__).parent.glob("*.py"))
    for path in package + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        where = f"{path.parent.name}/{path.name}"
        unused += [f"{where}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


_MODULE_PATHS = sorted(Path(polycrt.__file__).parent.glob("*.py"))


def test_no_module_imports_typing():
    # Annotations are builtin generics, | unions and collections.abc, so no
    # command compiles typing for names it never evaluates.
    importers = []
    for path in _MODULE_PATHS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            importers += [f"{path.name}:{node.lineno}" for name in names
                          if name.partition(".")[0] == "typing"]
    assert importers == []


def _defined_objects(module):
    """Each function, method, property getter and class that ``module`` defines."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            yield obj
            for member in vars(obj).values():
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if inspect.isfunction(inspect.unwrap(member)):
                    yield member
        elif inspect.isfunction(inspect.unwrap(obj)):
            yield obj


def test_every_annotation_resolves():
    # get_type_hints evaluates the annotations that the modules leave as
    # text, so a name that no module binds any more fails here.
    checked, unresolved = 0, []
    for path in _MODULE_PATHS:
        stem = path.stem
        module = importlib.import_module("polycrt" if stem == "__init__" else f"polycrt.{stem}")
        for obj in _defined_objects(module):
            checked += 1
            try:
                typing.get_type_hints(obj)
            except (NameError, TypeError) as exc:
                unresolved.append(f"{module.__name__}.{obj.__qualname__}: {exc!r}")
    assert unresolved == []
    assert checked > 200


def loaded_after(code, *argv):
    """The modules a fresh interpreter has loaded after running ``code``.

    ``code`` sees ``argv`` as ``sys.argv[1:]`` and must not print.  The
    interpreter runs without ``site``, so no start-up hook loads a module.
    """
    probe = f"{code}\nimport sys\nprint(*sorted(sys.modules))\n"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_bare_import_loads_no_submodule():
    loaded = loaded_after("import polycrt")
    assert "polycrt" in loaded
    assert sorted(m for m in loaded if m.startswith("polycrt.")) == []


def test_dir_covers_the_export_list_and_loads_no_submodule():
    names = dir(polycrt)
    assert names == sorted(names) and set(polycrt.__all__) <= set(names)
    code = (
        "import polycrt\n"
        "names = dir(polycrt)\n"
        "if names != sorted(names): raise SystemExit('dir is not sorted')\n"
        "if not set(polycrt.__all__) <= set(names): raise SystemExit('dir misses a name')"
    )
    loaded = loaded_after(code)
    assert sorted(m for m in loaded if m.startswith("polycrt.")) == []


def test_first_use_loads_only_the_names_module_and_keeps_the_name():
    code = (
        "import polycrt\n"
        "before = 'encode' in vars(polycrt)\n"
        "if before or polycrt.encode is not vars(polycrt).get('encode'):\n"
        "    raise SystemExit('encode not kept')"
    )
    loaded = loaded_after(code)
    assert {"polycrt.crt", "polycrt.levels", "polycrt.poly"} <= loaded
    assert {"polycrt.decoder", "polycrt.simulation"}.isdisjoint(loaded)


def test_the_odd_p_kernels_load_on_first_odd_p_use_and_stay_bound():
    # Once loaded, each holder reads the kernels off the module itself.
    code = (
        "import sys\n"
        "from polycrt import PrimeField, analyze_pair, encode, parse_polynomial\n"
        "import polycrt.crt, polycrt.poly\n"
        "def pair(p, m1, m2):\n"
        "    field = PrimeField(p)\n"
        "    return analyze_pair(parse_polynomial(m1, field), parse_polynomial(m2, field))\n"
        f"f2 = pair(2, {REF_M1!r}, {REF_M2!r})\n"
        f"encode(parse_polynomial({REF_A!r}, f2.field), f2)\n"
        "if 'polycrt.kronecker' in sys.modules: raise SystemExit('F_2 loaded the kernels')\n"
        "f13 = pair(13, 'x^5+x^3+2*x^2+2', 'x^6+x^4+x^3+3*x^2+x+3')\n"
        "encode(parse_polynomial('x^8+1', f13.field), f13)\n"
        "kernels = sys.modules['polycrt.kronecker']\n"
        "if not polycrt.poly.kronecker is polycrt.crt.kronecker is kernels:\n"
        "    raise SystemExit('a stand-in is still bound')"
    )
    loaded_after(code)


# Runs main on sys.argv[1:] with its output discarded; a nonzero exit fails.
_RUN_MAIN = (
    "import contextlib, io, sys\n"
    "from polycrt.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "if code: raise SystemExit(code)"
)

# (argv, modules the command must load, modules it must not load).  The
# odd-p kernels load on first odd-p use, so no F_2 command compiles them;
# bound runs on poly alone, without levels and its dataclasses.
_REF = ["--m1", REF_M1, "--m2", REF_M2]
_ODD_P = "polycrt.kronecker"
_NOT_DECODING = {"polycrt.decoder", "polycrt.simulation"}
_NOT_ANALYZING = {"polycrt.levels", "dataclasses", "polycrt.crt", *_NOT_DECODING, _ODD_P}
_FOOTPRINTS = [
    (["analyze", *_REF], {"polycrt.levels"}, {"polycrt.crt", *_NOT_DECODING, _ODD_P}),
    (["analyze", "--p", "13", "--m1", "x^5+x^3+2*x^2+2", "--m2", "x^6+x^4+x^3+3*x^2+x+3"],
     {"polycrt.levels", _ODD_P}, {"polycrt.crt", *_NOT_DECODING}),
    (["bound", "--moduli", f"{REF_M1},{REF_M2}"], {"polycrt.poly"}, _NOT_ANALYZING),
    (["encode", *_REF, "--poly", REF_A], {"polycrt.crt"}, {*_NOT_DECODING, _ODD_P}),
    (["crt", *_REF, "--r1", "x^7+x^2+x+1", "--r2", "x^5+x^4+x+1"], {"polycrt.crt"},
     {*_NOT_DECODING, _ODD_P}),
    (["reconstruct", *_REF, "--r1", "x^7", "--r2", "x^5+x^4+1", "--level", "3"],
     {"polycrt.decoder"}, {"polycrt.simulation", _ODD_P}),
    (["corrupt", "--r1", "x^7+x^2+x+1", "--r2", "x^5+x^4+x+1", "--tau", "2",
      "--e1", "x^2+x+1", "--e2", "x"], {"polycrt.poly"}, _NOT_ANALYZING),
    (["simulate", *_REF, "--level", "3", "--tau", "2", "--trials", "20"],
     {"polycrt.simulation"}, {_ODD_P}),
]


def _footprint_id(argv):
    """The command, with its field when that is not F_2."""
    return f"{argv[0]}-p{argv[2]}" if argv[1] == "--p" else argv[0]


@pytest.mark.parametrize(
    "argv, loads, skips", _FOOTPRINTS, ids=[_footprint_id(argv) for argv, _, _ in _FOOTPRINTS]
)
def test_each_command_loads_only_its_own_modules(argv, loads, skips):
    loaded = loaded_after(_RUN_MAIN, *argv)
    assert loads <= loaded
    assert sorted(skips & loaded) == []


def test_simulate_leaves_openssl_unloaded():
    # Campaign trials read SHAKE-256 from the builtin _sha3; hashlib would
    # load OpenSSL's _hashlib, several MiB of resident memory.
    loaded = loaded_after(_RUN_MAIN, "simulate", *_REF, "--level", "3", "--tau", "2", "--trials", "20")
    assert "polycrt.simulation" in loaded
    assert "_hashlib" not in loaded
