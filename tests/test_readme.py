"""The README's code runs: every ```python block, each on its own, and the
```json config through ``SweepSpec.from_dict``."""

import json
import re
from pathlib import Path

import pytest

from hybridsim import SweepSpec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


@pytest.mark.parametrize("index", range(len(blocks("python"))))
def test_python_block_runs(index):
    exec(compile(blocks("python")[index], f"README.md python block {index}", "exec"), {})


def test_json_config_loads():
    (config,) = blocks("json")
    spec = SweepSpec.from_dict(json.loads(config))
    assert spec.scenario == "narrowband_full"
