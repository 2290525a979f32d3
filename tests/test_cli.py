"""Command-line interface: subcommands, pinned output, exit codes."""
import json
from importlib import resources

import pytest

from mock_openai import MockCompletionsServer
from sketchdec import cli, errors
from sketchdec.cli import entrypoint
from sketchdec.errors import SketchdecError
from sketchdec.lm import TableLM

LIST4 = str(resources.files("sketchdec").joinpath("data", "list4.json"))
TABLE = str(resources.files("sketchdec").joinpath("data", "fig1_table.json"))
BACKEND = ["--backend", f"table:{TABLE}"]

def run(argv, capsys):
    code = entrypoint(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bindings_file(tmp_path, mapping) -> str:
    path = tmp_path / "bindings.json"
    path.write_text(json.dumps(mapping), encoding="utf-8")
    return str(path)


def test_decode_searched_output_is_pinned(capsys):
    code, out, err = run(
        ["decode", "--sketch", LIST4, *BACKEND, "--decoder", "var", "--width", "2"],
        capsys,
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "- Camera",
        "- Frisbee",
        "- Snorkeling gear",
        "",
        'ITEM1\t"Camera\\n"\t-1.357330\t-0.835535',
        'ITEM3\t"Snorkeling gear\\n"\t-0.703405\t-0.432997',
    ]


def test_decode_greedy_repeats(capsys):
    code, out, err = run(
        ["decode", "--sketch", LIST4, *BACKEND, "--decoder", "argmax"], capsys
    )
    assert code == 0
    assert out.splitlines() == [
        "- Frisbee",
        "- Frisbee",
        "- Camera",
        "",
        'ITEM1\t"Frisbee\\n"\t-1.214229\t-0.747446',
        'ITEM3\t"Camera\\n"\t-1.000656\t-0.615976',
    ]


def test_argmax_rejects_width(capsys):
    code, out, err = run(
        ["decode", "--sketch", LIST4, *BACKEND, "--decoder", "argmax", "--width", "2"],
        capsys,
    )
    assert code == 1
    assert "width" in err


def test_score_pinned_totals(tmp_path, capsys):
    good = bindings_file(
        tmp_path, {"ITEM1": "Camera\n", "ITEM3": "Snorkeling gear\n"}
    )
    code, out, err = run(
        ["score", "--sketch", LIST4, *BACKEND, "--bindings", good], capsys
    )
    assert code == 0
    assert out.splitlines() == [
        '0\tdet\t"- "\t-20.692807',
        "1\tvar\tITEM1\t-1.357330",
        '2\tdet\t"- Frisbee\\n- "\t-1.083440',
        "3\tvar\tITEM3\t-0.703405",
        "total\t-23.836982",
    ]


def test_score_empty_value_scores_zero(tmp_path, capsys):
    bindings = bindings_file(tmp_path, {"ITEM1": "", "ITEM3": "Snorkeling gear\n"})
    code, out, err = run(
        ["score", "--sketch", LIST4, *BACKEND, "--bindings", bindings], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1\tvar\tITEM1\t0.000000"
    assert lines[-1] == "total\t-52.402195"


def test_score_missing_binding(tmp_path, capsys):
    bindings = bindings_file(tmp_path, {"ITEM1": "x"})
    code, out, err = run(
        ["score", "--sketch", LIST4, *BACKEND, "--bindings", bindings],
        capsys,
    )
    assert code == 2
    assert "ITEM3" in err


def test_score_extra_binding(tmp_path, capsys):
    bindings = bindings_file(tmp_path, {"ITEM1": "a", "ITEM3": "b", "ITEM9": "c"})
    code, out, err = run(
        ["score", "--sketch", LIST4, *BACKEND, "--bindings", bindings], capsys
    )
    assert code == 2
    assert "ITEM9" in err


def test_score_unparseable_bindings(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope", encoding="utf-8")
    code, out, err = run(
        ["score", "--sketch", LIST4, *BACKEND, "--bindings", str(path)], capsys
    )
    assert code == 1
    code, out, err = run(
        ["score", "--sketch", LIST4, *BACKEND, "--bindings", str(tmp_path / "no.json")],
        capsys,
    )
    assert code == 1


def test_score_constraint_violation(tmp_path, capsys):
    sketch = {
        "name": "pick",
        "chunks": [
            {"kind": "det", "text": "x"},
            {
                "kind": "var",
                "name": "CHOICE",
                "max_tokens": 2,
                "constraint": {"one_of": ["a", "b"]},
            },
        ],
    }
    path = tmp_path / "pick.json"
    path.write_text(json.dumps(sketch), encoding="utf-8")
    bindings = bindings_file(tmp_path, {"CHOICE": "z"})
    code, out, err = run(
        ["score", "--sketch", str(path), *BACKEND, "--bindings", bindings],
        capsys,
    )
    assert code == 2
    assert "CHOICE" in err


@pytest.mark.parametrize(
    "spec",
    ["table", "carrier-pigeon:file", "http:http://h", "http:,model=m", ""],
)
def test_bad_backend_specs(spec, capsys):
    code, out, err = run(
        ["decode", "--sketch", LIST4, "--backend", spec], capsys
    )
    assert code == 1


def test_missing_sketch_file(tmp_path, capsys):
    code, out, err = run(
        ["decode", "--sketch", str(tmp_path / "absent.json"), *BACKEND], capsys
    )
    assert code == 1


def test_malformed_sketch_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x"}', encoding="utf-8")  # no chunks key
    code, out, err = run(["decode", "--sketch", str(path), *BACKEND], capsys)
    assert code == 1


def not_utf8_argv(which: str, tmp_path) -> list[str]:
    """A command line whose one input of kind ``which`` is not UTF-8."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"name": "caf\xe9"}')
    if which == "corpus":
        config = {"order": 2, "vocab": ["a"], "corpus_path": "bad.json", "tokenizer": "char"}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(config), encoding="utf-8")
        return ["decode", "--sketch", LIST4, "--backend", f"ngram:{model}"]
    return {
        "sketch": ["decode", "--sketch", str(bad), *BACKEND],
        "table": ["decode", "--sketch", LIST4, "--backend", f"table:{bad}"],
        "ngram": ["decode", "--sketch", LIST4, "--backend", f"ngram:{bad}"],
        "manifest": ["bench", str(bad)],
        "bindings": ["score", "--sketch", LIST4, *BACKEND, "--bindings", str(bad)],
    }[which]


@pytest.mark.parametrize(
    "which", ["sketch", "table", "ngram", "corpus", "manifest", "bindings"]
)
def test_input_that_is_not_utf8_is_a_one_line_error(which, tmp_path, capsys):
    code, out, err = run(not_utf8_argv(which, tmp_path), capsys)
    assert code == 1 and out == ""
    assert "utf-8" in one_error_line(err, "sketchdec: ").lower()


def test_mistyped_table_file_is_a_one_line_error(tmp_path, capsys):
    """A context row that is a number is refused in one line."""
    path = tmp_path / "table.json"
    model = {"vocab": ["", "a"], "eos": 0, "contexts": {"a": 3}, "default": [0.5, 0.5]}
    path.write_text(json.dumps(model), encoding="utf-8")
    code, out, err = run(
        ["decode", "--sketch", LIST4, "--backend", f"table:{path}"], capsys
    )
    assert code == 1 and out == ""
    assert "context 'a'" in one_error_line(err, "sketchdec: ")


def test_mistyped_ngram_config_is_a_one_line_error(tmp_path, capsys):
    """A corpus path that is a number is refused in one line."""
    path = tmp_path / "model.json"
    config = {"order": 1, "vocab": ["a"], "corpus_path": 3, "tokenizer": "char"}
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run(
        ["decode", "--sketch", LIST4, "--backend", f"ngram:{path}"], capsys
    )
    assert code == 1 and out == ""
    assert "corpus_path" in one_error_line(err, "sketchdec: ")


def test_http_requires_api_key(monkeypatch, capsys):
    monkeypatch.delenv("SKETCHDEC_API_KEY", raising=False)
    code, out, err = run(
        [
            "decode",
            "--sketch",
            LIST4,
            "--backend",
            "http:http://127.0.0.1:9,model=m",
        ],
        capsys,
    )
    assert code == 1
    assert "SKETCHDEC_API_KEY" in err


def test_http_unreachable_is_backend_failure(monkeypatch, capsys):
    monkeypatch.setenv("SKETCHDEC_API_KEY", "k")
    code, out, err = run(
        [
            "decode",
            "--sketch",
            LIST4,
            "--backend",
            "http:http://127.0.0.1:9,model=m",
            "--retries",
            "0",
            "--timeout-ms",
            "500",
        ],
        capsys,
    )
    assert code == 3


@pytest.fixture
def served_table(monkeypatch):
    """The fig1 table behind the mock completions service."""
    monkeypatch.setenv("SKETCHDEC_API_KEY", "k")
    with MockCompletionsServer(TableLM.from_file(TABLE)) as server:
        yield server


def http_decode(server, *flags) -> list[str]:
    backend = f"http:{server.base_url},model=m"
    return ["decode", "--sketch", LIST4, "--backend", backend, *flags]


def one_error_line(err: str, prefix: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err
    return lines[0]


def test_http_decode_runs_against_the_mock(served_table, capsys):
    code, out, err = run(http_decode(served_table, "--decoder", "argmax"), capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[:3] == ["- Frisbee", "- Frisbee", "- Camera"]


def test_http_failures_beyond_retries_exit_3(served_table, monkeypatch, capsys):
    monkeypatch.setattr("time.sleep", lambda s: None)  # skip the backoff
    served_table.fail_next = 3
    code, out, err = run(http_decode(served_table, "--retries", "2"), capsys)
    assert code == 3 and out == ""
    line = one_error_line(err, "sketchdec: backend failure:")
    assert "after 3 attempts" in line
    assert len(served_table.requests) == 3


@pytest.mark.parametrize(
    "message, shown",
    [
        # ContextTooLong carries the service's message as it is
        ("This model's maximum context length is 8 tokens", ": This model's"),
        ("unknown model 'm'", " answered 400: unknown model 'm'"),
    ],
    ids=["context-length", "other"],
)
def test_http_client_errors_exit_3(message, shown, served_table, capsys):
    served_table.error_once = (400, message)
    code, out, err = run(http_decode(served_table, "--retries", "2"), capsys)
    assert code == 3 and out == ""
    line = one_error_line(err, "sketchdec: backend failure:")
    assert shown in line and line.endswith(message)
    # a client error is not retried
    assert len(served_table.requests) == 1


def test_http_malformed_body_exits_3(served_table, capsys):
    answer = served_table.answer
    served_table.answer = lambda payload: [answer(payload)]
    code, out, err = run(http_decode(served_table, "--retries", "2"), capsys)
    assert code == 3 and out == ""
    line = one_error_line(err, "sketchdec: backend failure:")
    assert line.endswith("returned JSON that is not an object")
    # a malformed body is not retried
    assert len(served_table.requests) == 1


def test_http_unsatisfiable_template_exits_2(served_table, capsys):
    code, out, err = run(http_decode(served_table, "--max-tokens", "1"), capsys)
    assert code == 2 and out == ""
    line = one_error_line(err, "sketchdec: decode failure:")
    assert "no hypothesis completed the template" in line


def test_exhaustive_walk_past_its_cap_exits_2(capsys):
    code, out, err = run(
        ["decode", "--sketch", LIST4, *BACKEND, "--decoder", "var"]
        + ["--proposal", "exhaustive"],
        capsys,
    )
    assert code == 2 and out == ""
    line = one_error_line(err, "sketchdec: decode failure:")
    assert line.endswith("completion space 65537 exceeds cap 65536")


class UnnamedFailure(SketchdecError):
    """An error class of the package that the CLI does not name."""


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (UnnamedFailure("a new failure"), 2, "sketchdec: decode failure: "),
        (errors.TemplateUnsatisfiable("none"), 2, "sketchdec: decode failure: "),
        (errors.DeadEnd("stuck"), 2, "sketchdec: decode failure: "),
        (errors.UnsegmentableText("ax", 1), 2, "sketchdec: decode failure: "),
        (errors.ForcedTextMisaligned("merged"), 3, "sketchdec: backend failure: "),
        (errors.ContextTooLong("too long"), 3, "sketchdec: backend failure: "),
        (errors.ModelFileError("bad row"), 1, "sketchdec: "),
        (errors.SketchSyntaxError(3, "bad chunk"), 1, "sketchdec: "),
        (FileNotFoundError("no file"), 1, "sketchdec: "),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
)
def test_a_package_error_exits_by_its_group(error, code, prefix, monkeypatch, capsys):
    """Configuration and backend errors exit 1 and 3, and every other error
    of the package, a class the CLI does not name included, is a decode
    failure: exit 2 with one line, not a traceback."""

    def handler(args):
        raise error

    monkeypatch.setattr(cli, "cmd_decode", handler)
    got, out, err = run(["decode", "--sketch", LIST4, *BACKEND], capsys)
    assert got == code and out == ""
    assert one_error_line(err, prefix) == prefix + str(error)


def small_manifest(tmp_path):
    rows = [
        {"task": "fig1", "seed": 0, "decoder": "argmax", "width": 1, "alpha": 0.7, "beta": 0},
        {"task": "fig1", "seed": 0, "decoder": "beamvar", "width": 2, "alpha": 0.7, "beta": 0},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    return path


def test_bench_writes_reports(tmp_path, capsys):
    manifest = small_manifest(tmp_path)
    code, out, err = run(["bench", str(manifest)], capsys)
    assert code == 0
    assert "duplicate=yes" in out and "duplicate=no" in out
    assert (tmp_path / "manifest.json.report.json").exists()
    assert (tmp_path / "manifest.json.report.txt").exists()
    # a second run is byte-identical on stdout
    code2, out2, err2 = run(["bench", str(manifest)], capsys)
    assert (code2, out2) == (0, out)


def test_bench_filter(tmp_path, capsys):
    manifest = small_manifest(tmp_path)
    code, out, err = run(["bench", str(manifest), "--filter", "sudoku"], capsys)
    assert code == 0
    assert "duplicate" not in out


def test_bench_malformed_manifest(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('[{"task": "fig1"}]', encoding="utf-8")
    code, out, err = run(["bench", str(path)], capsys)
    assert code == 1
    path.write_text("{nope", encoding="utf-8")
    code, out, err = run(["bench", str(path)], capsys)
    assert code == 1


def test_tree_emits_ndjson(tmp_path, capsys):
    out_path = tmp_path / "trace.ndjson"
    code, out, err = run(
        [
            "tree",
            "--sketch",
            LIST4,
            *BACKEND,
            "--decoder",
            "beamvar",
            "--width",
            "2",
            "--emit-tree",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    nodes = [json.loads(line) for line in lines]
    assert nodes[0] == {
        "id": 0,
        "parent": None,
        "token_text": "",
        "logprob": 0.0,
        "norm_score": 0.0,
        "pool": 0,
        "status": "expanded",
    }
    assert all(
        list(n) == ["id", "parent", "token_text", "logprob", "norm_score", "pool", "status"]
        for n in nodes
    )
    assert out.startswith("- Camera\n")


def test_decode_accepts_emit_tree_too(tmp_path, capsys):
    out_path = tmp_path / "trace.ndjson"
    code, out, err = run(
        ["decode", "--sketch", LIST4, *BACKEND, "--emit-tree", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out_path.exists()


def test_tree_requires_emit_path(capsys):
    code, out, err = run(["tree", "--sketch", LIST4, *BACKEND], capsys)
    assert code == 1


def test_help_exits_zero(capsys):
    assert entrypoint(["--help"]) == 0
    capsys.readouterr()
    assert entrypoint(["decode", "--help"]) == 0


def test_unknown_subcommand(capsys):
    assert entrypoint(["frobnicate"]) == 1


def test_unknown_decoder_choice(capsys):
    code, out, err = run(
        ["decode", "--sketch", LIST4, *BACKEND, "--decoder", "dfs"], capsys
    )
    assert code == 1


def test_bench_mistyped_row_is_a_one_line_error(tmp_path, capsys):
    rows = [{"task": "fig1", "seed": 0, "decoder": "argmax", "width": None, "alpha": 0.7, "beta": 0}]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    code, out, err = run(["bench", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "'width' must be an integer" in err


@pytest.mark.parametrize(
    "flags, word",
    [
        (["--width", "0"], "width"),
        (["--width", "-3"], "width"),
        (["--alpha", "1.5"], "alpha"),
        (["--alpha", "nan"], "alpha"),
        (["--beta", "nan"], "beta"),
        (["--beta", "inf"], "beta"),
        (["--beta", "-1"], "beta"),
        (["--max-tokens", "0"], "global_max_tokens"),
        (["--max-tokens", "-3"], "global_max_tokens"),
    ],
)
@pytest.mark.parametrize("command", ["decode", "tree"])
def test_bad_numeric_flags_are_one_line_errors(command, flags, word, tmp_path, capsys):
    tree = ["--emit-tree", str(tmp_path / "tree.ndjson")]
    code, out, err = run(
        [command, "--sketch", LIST4, *BACKEND, "--decoder", "beamvar", *flags, *tree],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and word in err and "Traceback" not in err
    assert not (tmp_path / "tree.ndjson").exists()


@pytest.mark.parametrize(
    "flags, word",
    [
        (["--timeout-ms", "0"], "timeout"),
        (["--timeout-ms", "-5"], "timeout"),
        (["--retries", "-1"], "retries"),
    ],
)
@pytest.mark.parametrize("command", ["decode", "tree"])
def test_bad_http_flags_are_one_line_errors(
    command, flags, word, served_table, tmp_path, capsys
):
    tree = ["--emit-tree", str(tmp_path / "tree.ndjson")]
    argv = http_decode(served_table, "--decoder", "beamvar", *flags, *tree)
    code, out, err = run([command, *argv[1:]], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and word in err and "Traceback" not in err
    assert not (tmp_path / "tree.ndjson").exists()
    # refused before any request is sent
    assert served_table.requests == []
