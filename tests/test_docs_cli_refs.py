"""Every ``python -m repro <verb> ...`` the docs, Makefile and CI quote must parse.

A verb or option that is deleted from :mod:`repro.cli` has to leave the
prose and the CI steps with it; this holds them to ``build_parser()``.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "Makefile",
    ROOT / ".github" / "workflows" / "ci.yml",
]

# A quoted command runs to the end of its line or to whatever closes it
# first: a backtick, a comment or a redirect.  The whitespace after
# ``repro`` may be a line wrap in prose.
_COMMAND = re.compile(r"python -m repro\s+([^\n`#>]*)")


def quoted_commands(text):
    """Argument vectors of every ``python -m repro ...`` in *text*.

    ``verb_a|verb_b --flag`` and ``obs what_a|what_b --flag`` (prose
    shorthand) yield one vector per verb or WHAT; ``[--flag]`` counts
    as given; a shell pipe ends the command.
    """
    for match in _COMMAND.finditer(text.replace("\\\n", " ")):
        command = match.group(1).split(" | ")[0]
        argv = shlex.split(command.replace("[", " ").replace("]", " "))
        head = 1 if argv[0] == "obs" and len(argv) > 1 else 0
        for word in argv[head].split("|"):
            yield argv[:head] + [word] + argv[head + 1:]


def test_extractor_reads_the_forms_the_docs_use():
    text = (
        "run `python -m repro gateway|fig5a --seed 1` or `python -m repro\n"
        "fleet [--quick]`.\n"
        "    python -m repro gone --quick \\\n"
        "      --out /tmp/x.json   # comment\n"
        "    python -m repro obs trace --format summary | python -m json.tool > /dev/null\n"
        "see `python -m repro obs metrics|spans|alerts --seed 3`.\n"
    )
    assert list(quoted_commands(text)) == [
        ["gateway", "--seed", "1"],
        ["fig5a", "--seed", "1"],
        ["fleet", "--quick"],
        ["gone", "--quick", "--out", "/tmp/x.json"],
        ["obs", "trace", "--format", "summary"],
        ["obs", "metrics", "--seed", "3"],
        ["obs", "spans", "--seed", "3"],
        ["obs", "alerts", "--seed", "3"],
    ]


def test_every_quoted_command_parses(capsys):
    parser = build_parser()
    checked = 0
    rejected = []
    for path in SOURCES:
        for argv in quoted_commands(path.read_text()):
            checked += 1
            try:
                parser.parse_args(argv)
            except SystemExit:
                rejected.append(f"{path.relative_to(ROOT)}: repro {' '.join(argv)}")
    capsys.readouterr()  # argparse's usage text for each rejection
    assert not rejected, "\n".join(rejected)
    assert checked >= 50  # the extractor still finds the commands


def test_the_deleted_bench_verb_is_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["bench"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["canary"], ["obs", "incident"]],
                         ids=["canary", "obs-incident"])
def test_the_deleted_canary_surface_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert f"invalid choice: '{argv[-1]}'" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["metrics", "trace", "spans", "flight",
                                  "timeline", "alerts"])
def test_the_folded_verbs_are_rejected(verb, capsys):
    """The six observability exports answer only as ``obs WHAT``."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([verb])
    assert exit_info.value.code == 2
    assert f"invalid choice: '{verb}'" in capsys.readouterr().err
    assert build_parser().parse_args(["obs", verb]).what == verb


#: Attach surfaces the observer seam replaced (``emitter.observers`` is
#: the one left), and the incident layer that was deleted with its
#: trace propagation and burn-rate rules; prose and examples may not
#: send a reader to them.
_GONE = ("PacketTrace", "attach_trace", "prober.tracer", "flight=",
         "TracePropagation", "build_incident_bundle", "burn_rate_rules",
         "obs incident", "FailoverManager", "swap_worker", "restore_worker",
         "observe_failover", "observe_fleet")


def test_no_doc_or_example_names_a_removed_attach_surface():
    scanned = [path for path in SOURCES if path.suffix != ".yml"]
    scanned += sorted((ROOT / "examples").glob("*.py"))
    assert ROOT / "docs" / "API.md" in scanned and len(scanned) > 15
    stale = [f"{path.relative_to(ROOT)}: {name}"
             for path in scanned for name in _GONE if name in path.read_text()]
    assert not stale, "\n".join(stale)
