"""The generated inputs depend on the seed alone and keep their shares."""

import itertools
from collections import Counter

import workloads


def take(stream, n):
    return list(itertools.islice(stream, n))


def test_curves_stream_is_deterministic_per_seed():
    assert take(workloads.curves_stream(7), 60) == take(workloads.curves_stream(7), 60)
    assert take(workloads.curves_stream(7), 60) != take(workloads.curves_stream(8), 60)


def test_cli_stream_is_deterministic_per_seed():
    assert take(workloads.cli_stream(7), 30) == take(workloads.cli_stream(7), 30)
    assert take(workloads.cli_stream(7), 30) != take(workloads.cli_stream(8), 30)


def test_every_curves_block_has_fixed_shares():
    arrows = take(workloads.curves_stream(3), 3 * len(workloads.CURVES_SPECS))
    for block in (arrows[0:20], arrows[20:40], arrows[40:60]):
        assert sum(a.segments == workloads.ROADMAP_HOST for a in block) == 1
        kinds = Counter((start is None, end is None)
                        for start, end in map(workloads.split_spec, (a.spec for a in block)))
        assert kinds == {(False, False): 10, (False, True): 5, (True, False): 5}
        assert all(0.2 <= a.width <= 2.0 for a in block)


def test_loops_and_cusps_are_classified():
    assert workloads._looped(workloads.ROADMAP_HOST[0])  # two exact cusps
    assert workloads._looped(("C", (0, 0), (100, 60), (-20, 60), (80, 0)))  # a loop
    assert not workloads._looped(("C", (0, 0), (30, 20), (60, -20), (90, 0)))  # an S
    assert not workloads._looped(("C", (0, 0), (0, 50), (90, 50), (90, 0)))  # an arch
    assert not workloads._looped(("L", (0, 0), (1, 0)))
    arrows = take(workloads.curves_stream(4), 2000)
    share = sum(a.looped for a in arrows) / len(arrows)
    assert 0.05 < share < 0.5  # left at the generator's rate, neither forced nor filtered


def test_cli_argv_is_written_readme_style():
    invocations = take(workloads.cli_stream(5), 6 * len(workloads.CLI_BLOCK))
    renders = [i for i in invocations if i.argv[0] == "render"]
    end_only = [i for i in renders if i.argv[2].startswith("-")]
    assert len(renders) == 4 * 6 and len(end_only) == 6
    for invocation in end_only:
        assert invocation.argv[1] == "--spec" and not invocation.argv[2].startswith("--")


def test_path_literal_is_the_generated_host():
    from arrowtips.cli import parse_path_literal

    for arrow in take(workloads.curves_stream(11), 40):
        parsed = parse_path_literal(workloads.path_literal(arrow.segments))
        assert workloads._segments_of(parsed.segments) == arrow.segments


def test_generated_tip_names_are_the_oracle_rows():
    from pathlib import Path

    oracle = workloads.load_oracle(Path(__file__).resolve().parents[2])
    assert [(row[0], row[1]) for row in oracle.ENTRIES] == list(workloads.TIP_PAIRS)


def test_cli_ops_leave_out_and_set_aside_the_argparse_defect(tmp_path):
    cli = workloads.Cli(None, tmp_path)
    ops = take(cli.inputs(5), 60)
    assert not any(map(workloads.hits_argparse_defect, ops))
    assert cli.set_aside and all(map(workloads.hits_argparse_defect, cli.set_aside))
    generated = take(workloads.cli_stream(5), len(ops) + len(cli.set_aside))
    assert [i for i in generated if not workloads.hits_argparse_defect(i)] == ops
    assert [i for i in generated if workloads.hits_argparse_defect(i)] == cli.set_aside


def _cli(tmp_path):
    from pathlib import Path

    cli = workloads.Cli(workloads.load_oracle(Path(__file__).resolve().parents[2]), tmp_path)
    cli.load()
    return cli


def _render(spec):
    arrow = workloads.Arrow(spec, (("L", (0.0, 0.0), (80.0, 0.0)),), 0.8, False)
    argv = ("render", "--spec", spec, "--path", "M 0,0 L 80,0", "--out", "arrow.svg")
    return workloads.Invocation(argv, arrow, None)


def test_the_argparse_defect_is_read_from_the_spec():
    for spec, hits in (("-latex'", True), ("-hooks reversed", True),
                       ("-angle 60 reversed", False), ("latex'-latex'", False), ("[-", False)):
        assert workloads.hits_argparse_defect(_render(spec)) is hits, spec


def test_every_nonzero_exit_of_an_op_is_a_failure(tmp_path):
    cli = _cli(tmp_path)
    for spec in ("-angle 60 reversed", "latex'-latex'", "[-"):
        assert cli.check(_render(spec), (2, ""), workloads.Properties()).failed, spec
    extents = workloads.Invocation(("extents", "--tip", "o", "--width", "1"), None, ("o", "end"))
    assert cli.check(extents, (2, ""), workloads.Properties()).failed


def test_set_aside_invocations_exit_2_with_the_argparse_message_or_render(tmp_path, monkeypatch):
    from pathlib import Path

    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[2] / "src"))
    cli = _cli(tmp_path)
    props = workloads.Properties()
    cli.set_aside = [_render("-latex'"), _render("-angle 60 reversed")]
    assert not cli.run_set_aside(props).failed
    assert (props.set_aside, props.defect_exits) == (2, 1)
    cli.set_aside = [_render("-no such tip")]  # exit 2, but not argparse's message
    assert cli.run_set_aside(workloads.Properties()).failed
