"""The README's documented config and commands must load with the current fields and flags,
and every name ``src/funnel`` defines must be read by the program, not by the tests alone."""

import ast
import json
import re
import shlex
from collections import Counter
from pathlib import Path

from funnel.cli import build_parser
from funnel.model import ModelConfig
from funnel.training import settings_from_json

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_config():
    text = README.read_text()
    section = text[text.index("### Config JSON"):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_readme_config_json_loads():
    d = readme_config()
    settings_from_json(d.pop("train"))
    ModelConfig(**d)


def test_readme_config_json_documents_every_model_field():
    d = readme_config()
    d.pop("train")
    assert set(json.loads(ModelConfig(**d).to_json())) == set(d)


def readme_commands():
    """Every ``funnel`` line of the "Command line" block, continuations joined."""
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = re.sub(r"\\\n\s*", "", block).splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("funnel ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) == 8
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_package_layout_names_every_module():
    text = README.read_text()
    block = re.search(r"```\n(src/funnel/\n.*?)```", text[text.index("## Package layout"):],
                      re.S).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = sorted(p.name for p in (README.parent / "src" / "funnel").glob("*.py")
                     if p.name != "__init__.py")
    assert sorted(listed) == modules
    assert len(listed) == len(set(listed))


# Definitions in src/funnel that no src or benchmark code reads by name, each with
# the reason it stays.
UNREAD_KEPT = {
    **{f"relattn.RelPosEncoding.{name}": "benchmark/tracer.py wraps it by name, from "
       "RelPosEncoding.__dict__, to time relattn.encoding" for name in ("phi", "psi", "omega")},
    **{f"costmodel.CostReport.{name}": "read through dataclasses.fields by CostReport.to_dict "
       "and cli's analyze report" for name in ("params_total", "params_transformer",
                                               "params_embedding", "params_shared",
                                               "effective_layers")},
}


def reads_in(tree: ast.AST, attributes_only: bool) -> Counter:
    """Names read in ``tree``: attribute reads, and plain names unless ``attributes_only``."""
    kinds = ast.Attribute if attributes_only else (ast.Attribute, ast.Name)
    return Counter(n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(tree)
                   if isinstance(n, kinds) and isinstance(n.ctx, ast.Load))


def definitions(tree: ast.Module, module: str):
    """(qualified name, name, node, is a member) for every module-level function, method
    and dataclass field."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, node, False
        elif isinstance(node, ast.ClassDef):
            is_dataclass = any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, True
                elif is_dataclass and isinstance(item, ast.AnnAssign):
                    yield f"{module}.{node.name}.{item.target.id}", item.target.id, item, True


def test_every_src_name_is_read_by_the_program():
    # A member counts as read only as an attribute, a function also as a plain
    # name; reads inside the definition itself (recursion) do not count.
    # Matching is by name alone, so math.pi counts as a read of RelPosEncoding.pi.
    src = sorted((ROOT / "src" / "funnel").glob("*.py"))
    program = src + [p for p in sorted((ROOT / "benchmark").rglob("*.py"))
                     if "tests" not in p.relative_to(ROOT).parts]
    trees = {p: ast.parse(p.read_text()) for p in program}
    reads = {only: sum((reads_in(t, only) for t in trees.values()), Counter())
             for only in (False, True)}
    unread = {qualified for p in src
              for qualified, name, node, member in definitions(trees[p], p.stem)
              if not (name.startswith("__") and name.endswith("__"))
              and reads[member][name] <= reads_in(node, member)[name]}
    assert unread == set(UNREAD_KEPT)
