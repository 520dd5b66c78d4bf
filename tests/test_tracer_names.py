"""Every name the benchmark tracer wraps or hooks exists in `filtra`.

`perfbench/tracer.py` finds the functions it wraps by name.  A function in
`NAMED` or `HOOKS` that is renamed or deleted is silently left unwrapped, and
its metric reads 0 in a traced run that still succeeds; this test fails
instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def unwrapped_reason(tracer, name: str) -> str | None:
    """Why `install` would not wrap `name`, or None when it would."""
    module, *path = name.split(".")
    if module not in tracer.LAYERS:
        return f"module {module} is not in LAYERS"
    mod = importlib.import_module(f"filtra.{module}")
    if len(path) == 1:
        fn = vars(mod).get(path[0])
        if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
            return "no function of that name defined in the module"
        if path[0].startswith("_") or name in tracer.UNWRAPPED:
            return "the function is private or listed in UNWRAPPED"
        return None
    cls_name, meth = path
    if meth not in tracer.METHODS.get(module, {}).get(cls_name, ()):
        return "the method is not listed in METHODS"
    cls = vars(mod).get(cls_name)
    if not (inspect.isclass(cls) and inspect.isfunction(cls.__dict__.get(meth))):
        return "no method of that name defined on the class"
    return None


def test_tracer_names_resolve_to_wrapped_functions():
    tracer = load_tracer()
    methods = {f"{module}.{cls}.{meth}" for module, classes in tracer.METHODS.items()
               for cls, meths in classes.items() for meth in meths}
    names = set(tracer.NAMED) | set(tracer.HOOKS) | methods
    problems = {name: unwrapped_reason(tracer, name) for name in sorted(names)}
    assert {name: why for name, why in problems.items() if why} == {}
