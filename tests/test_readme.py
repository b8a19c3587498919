"""README's config section documents the whole registry vocabulary, and its example runs."""

import dataclasses
import re
from pathlib import Path

from chansim.config import SWEEPABLE, ExperimentConfig
from chansim.registry import METRICS, MODELS

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _config_section_names() -> set:
    start = README.index("## Config format")
    end = README.index("\n## ", start + 1)
    prose = re.sub(r"```.*?```", "", README[start:end], flags=re.S)
    return set(re.findall(r"`([^`]+)`", prose))


def test_readme_config_section_names_every_key_sweep_model_and_metric():
    names = _config_section_names()
    keys = [f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)
            if "key" in f.metadata]
    assert len(keys) == 39
    for kind, expected in (("config key", keys), ("sweep name", SWEEPABLE),
                           ("model", MODELS), ("metric", METRICS)):
        missing = sorted(set(expected) - names)
        assert not missing, f"README config section lacks {kind}s {missing}"


def test_readme_minimal_example_runs(capsys):
    start = README.index("A minimal example:")
    block = re.search(r"```python\n(.*?)```", README[start:], flags=re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) > 0
