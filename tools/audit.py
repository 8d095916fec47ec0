#!/usr/bin/env python3
"""Reach and knob audit: which functions run, which parameters ever vary.

``run OUT -- COMMAND...`` puts a ``sys.setprofile`` hook into every Python
process of COMMAND (a generated ``sitecustomize``: subprocesses count too);
each leaves a JSON record in OUT.  ``report OUT`` lists the ``src/repro``
functions never reached and the parameters never given a non-default value.
"""

import ast
import atexit
import gc
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve()
DEFAULT_ROOT = HERE.parents[1] / "src" / "repro"


def _function(frame, code):
    """The function object running *code*, for its defaults and qualname."""
    found = frame.f_globals.get(code.co_name)
    if getattr(found, "__code__", None) is code:
        return found
    if code.co_argcount and code.co_varnames[0] in ("self", "cls"):
        owner = frame.f_locals.get(code.co_varnames[0])
        for klass in (owner if isinstance(owner, type) else type(owner)).__mro__:
            attr = klass.__dict__.get(code.co_name)
            if getattr(getattr(attr, "__func__", attr), "__code__", None) is code:
                return getattr(attr, "__func__", attr)
    return next((ref for ref in gc.get_referrers(code)
                 if isinstance(ref, types.FunctionType) and ref.__code__ is code), None)


def install() -> None:
    """Audit this process when ``AUDIT_ROOT`` and ``AUDIT_OUT`` are set."""
    root, out = os.environ.get("AUDIT_ROOT"), os.environ.get("AUDIT_OUT")
    if not (root and out):
        return
    codes, reached, varied = {}, set(), set()  # codes: code -> None or (key, {param: default})

    def entry(frame, code):
        path = code.co_filename
        if not path.startswith(root) and path != "<string>":
            return None
        fn = _function(frame, code)
        if not path.startswith(root):  # a dataclass's generated __init__
            module = sys.modules.get(getattr(fn, "__module__", None) or "")
            path = os.path.abspath(getattr(module, "__file__", None) or "")
            if not path.startswith(root):
                return None
        key = (os.path.relpath(path, root), getattr(fn, "__qualname__", code.co_name))
        reached.add(key)
        defaults = getattr(fn, "__defaults__", None) or ()
        names = code.co_varnames[:code.co_argcount][-len(defaults):] if defaults else ()
        return key, dict(zip(names, defaults), **(getattr(fn, "__kwdefaults__", None) or {}))

    def hook(frame, event, arg):
        if event != "call":
            return
        if frame.f_code not in codes:
            codes[frame.f_code] = entry(frame, frame.f_code)
        found = codes[frame.f_code]
        if found is not None and found[1]:
            local = frame.f_locals
            for name, default in list(found[1].items()):
                value = local.get(name, default)
                try:
                    same = value is default or (type(value) is type(default) and value == default)
                except Exception:  # an __eq__ that cannot compare the two
                    same = False
                if not same:
                    del found[1][name]
                    varied.add(found[0] + (name,))

    def dump():
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"{os.getpid()}-{os.urandom(4).hex()}.json"), "w") as handle:
            json.dump({"reached": sorted(reached), "varied": sorted(varied)}, handle)

    sys.setprofile(hook)
    atexit.register(dump)


def run(out: str, command, root=DEFAULT_ROOT) -> int:
    """Run *command* with every Python process in it audited into *out*."""
    with tempfile.TemporaryDirectory(prefix="audit-site-") as site:
        Path(site, "sitecustomize.py").write_text(
            f"import runpy\nrunpy.run_path({str(HERE)!r})['install']()\n")
        path = os.pathsep.join(filter(None, [site, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, AUDIT_ROOT=os.path.join(os.path.abspath(root), ""),
                   AUDIT_OUT=os.path.abspath(out), PYTHONPATH=path)
        return subprocess.call(list(command), env=env)


def source_defs(root=DEFAULT_ROOT) -> dict:
    """``(relpath, qualname) -> (line, defaulted params)`` for every def under *root*."""
    defs = {}

    def visit(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if any("dataclass" in ast.dump(d) for d in child.decorator_list):
                    fields = [s.target.id for s in child.body if isinstance(s, ast.AnnAssign)
                              and s.value is not None and isinstance(s.target, ast.Name)]
                    defs[(rel, f"{prefix}{child.name}.__init__")] = (child.lineno, fields)
                visit(child, rel, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args, positional = child.args, child.args.posonlyargs + child.args.args
                params = [a.arg for a in positional[len(positional) - len(args.defaults):]]
                params += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                defs[(rel, prefix + child.name)] = (child.lineno, params)
                visit(child, rel, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, rel, prefix)

    for path in sorted(Path(root).rglob("*.py")):
        visit(ast.parse(path.read_text()), str(path.relative_to(root)), "")
    return defs


def report(out: str, root=DEFAULT_ROOT) -> str:
    """The two lists: functions never reached, parameters never varied."""
    reached, varied = set(), set()
    for record in Path(out).glob("*.json"):
        data = json.loads(record.read_text())
        reached.update(map(tuple, data["reached"]))
        varied.update(map(tuple, data["varied"]))
    never, fixed = [], []
    for (rel, qual), (line, params) in sorted(source_defs(root).items()):
        if (rel, qual) not in reached:
            never.append(f"  {rel}:{line} {qual}")
        else:
            fixed += [f"  {rel}:{line} {qual}({p})" for p in params if (rel, qual, p) not in varied]
    return "\n".join([f"functions never reached ({len(never)}):", *never,
                      f"parameters never given a non-default value ({len(fixed)}):", *fixed])


if __name__ == "__main__":
    if sys.argv[1:2] == ["run"] and sys.argv[3:4] == ["--"]:
        sys.exit(run(sys.argv[2], sys.argv[4:]))
    if sys.argv[1:2] == ["report"] and len(sys.argv) == 3:
        sys.exit(print(report(sys.argv[2])))
    sys.exit(f"usage: {sys.argv[0]} run OUT -- COMMAND... | report OUT")
