"""README.md against the code: its example command lines parse, the
bounds it quotes are the ones the parser and the Monte Carlo enforce, and
the config schema it and the devicemodel docstring spell is device.cfg's."""

import itertools
import shlex
from pathlib import Path

from ringlab import cli, devicemodel, langevin

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_text() -> str:
    return README.read_text(encoding="utf-8")


def spaced(n: int) -> str:
    """An integer as README writes it, thousands set apart by a space."""
    return f"{n:,}".replace(",", " ")


def test_readme_command_lines_parse():
    block = readme_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "ringlab", line
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit:
            raise AssertionError(f"README command does not parse: {line}") from None


def test_readme_bounds_match_the_code():
    text = " ".join(readme_text().split())  # README wraps its lines anywhere
    segments = cli.build_parser().parse_args(["langevin-verify", "--config", "device.cfg"]).segments
    most = cli.MONTE_CARLO_MAX_SAMPLES // ((segments + 1) * (cli.SEGMENT_SAMPLES // 2))
    assert f"({spaced(most)} trajectories at the default {segments} segments)" in text
    assert (f"Below `--dt-factor` {cli.LEAST_DT_FACTOR!r} not even the most segments, "
            f"{spaced(cli.MAX_SEGMENTS)}, reach the floor") in text
    assert f"rounds to fewer than {langevin.SHOT_CAL_MIN_SAMPLES} samples" in text
    assert f"`--segments {cli.MAX_SEGMENTS}`" in text


def config_keys(text: str) -> dict[str, list[str]]:
    """{section: its keys, in order} of config text; comments dropped."""
    keys, section = {}, None
    for line in text.splitlines():
        content = line.split("#", 1)[0].strip()
        if content.startswith("["):
            section = content.strip("[]")
            keys[section] = []
        elif content:
            keys[section].append(content.split("=", 1)[0].strip())
    return keys


def test_docs_spell_the_config_schema():
    device = config_keys((ROOT / "device.cfg").read_text(encoding="utf-8"))
    assert device.pop("ring2") == device["ring1"]  # both docs say [ring2] is keyed identically
    readme_block = readme_text().split("```ini\n", 1)[1].split("```", 1)[0]
    schema = devicemodel.__doc__.split("Config file schema", 1)[1].split("::\n", 1)[1]
    # the literal block runs to the docstring's next unindented line
    docstring_block = "\n".join(itertools.takewhile(lambda line: not line or line[0] == " ", schema.splitlines()))
    assert config_keys(readme_block) == device
    assert config_keys(docstring_block) == device
