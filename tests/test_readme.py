"""The README's library quick start runs and shows the values its comments state,
its flag list names exactly the flags the command line parser takes, and its
config example names exactly the keys the config parser accepts."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from gaussmax import config
from gaussmax.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _stated(code: str, pattern: str) -> str:
    """The value a comment in the quick start states, by a regex with one group."""
    match = re.search(pattern, code, re.MULTILINE)
    assert match, f"quick start no longer states {pattern!r}"
    return match.group(1)


def test_quick_start_values():
    code = _quick_start()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    point = namespace["point"]

    x_star = json.loads(_stated(code, r"^point\.x_star\s+# (\[[^\]]*\])"))
    alpha = float(_stated(code, r"^point\.margin_alpha\s+# (-?[\d.]+)"))
    rate = float(_stated(code, r"^point\.rate_componentwise\s+# (-?[\d.]+)"))
    slope = _stated(code, r"^# (-?\d\.\d+): the at-least-one slope")
    assert (x_star, alpha, rate, slope) == ([1.2, 1.2], 1.44, -0.94, "-0.9643")

    np.testing.assert_allclose(point.x_star, x_star, rtol=0, atol=1e-12)
    assert point.margin_alpha == pytest.approx(alpha, abs=1e-12)
    assert point.rate_componentwise == pytest.approx(rate, abs=1e-12)
    decimals = len(slope.split(".")[1])
    assert f"{namespace['slope']:.{decimals}f}" == slope
    assert namespace["report"].p_hat > 0.0


def _readme_flags() -> set:
    """``(command, flag)`` pairs of the "Common flags" paragraph; command None for all."""
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("Common flags:", 1)[1].split("\n\n", 1)[0]
    return {(cmd or None, flag) for cmd, flag in re.findall(r"`(?:(\w+) )?(--[\w-]+)", paragraph)}


def _parser_flags() -> set:
    """The same pairs from ``build_parser()``; a flag every subcommand takes gets None."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    per_command = {
        name: {
            flag
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
        }
        for name, sub in commands.choices.items()
    }
    common = set.intersection(*per_command.values())
    own = {(name, f) for name, flags in per_command.items() for f in flags - common}
    return {(None, f) for f in common} | own


def test_flag_list_matches_parser():
    readme, parser = _readme_flags(), _parser_flags()
    assert readme - parser == set(), "README names flags the parser does not take"
    assert parser - readme == set(), "the parser takes flags the README does not name"
    assert (None, "--config") in readme and ("verify", "--workers") in readme


def test_config_example_names_every_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    example = re.search(r"```yaml\n(.*?)```", section, re.DOTALL).group(1)
    config.parse_config(example)
    assert set(yaml.safe_load(example)) == config._TOP_KEYS
