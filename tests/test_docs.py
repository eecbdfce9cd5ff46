"""The README's documented config must load with the current fields."""

import json
import re
from pathlib import Path

from funnel.model import ModelConfig
from funnel.training import settings_from_json

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_json_loads():
    text = README.read_text()
    section = text[text.index("### Config JSON"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    d = json.loads(block)
    settings_from_json(d.pop("train"))
    ModelConfig(**d)
