"""The README's documented config must load with the current fields."""

import json
import re
from pathlib import Path

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
