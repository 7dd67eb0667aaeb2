"""README.md against the code: its example command lines parse, and the
bounds it quotes are the ones the parser and the Monte Carlo enforce."""

import shlex
from pathlib import Path

from ringlab import cli, langevin

README = Path(__file__).resolve().parents[1] / "README.md"


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
