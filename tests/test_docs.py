"""The README's documented config and commands must load with the current fields and flags."""

import json
import re
import shlex
from pathlib import Path

from funnel.cli import build_parser
from funnel.model import ModelConfig
from funnel.training import settings_from_json

README = Path(__file__).resolve().parents[1] / "README.md"


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
