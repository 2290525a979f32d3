"""Command-line front end for sketch decoding.

Subcommands: decode (fill a sketch and print bindings with scores),
score (log-likelihood of externally supplied bindings), bench (run a
benchmark manifest), tree (decode while dumping the search tree as
newline-delimited JSON).

Exit codes: 0 success, 1 configuration error, 2 decode or constraint
failure, 3 backend I/O failure.  All flag and file validation happens
before the first backend request.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from math import fsum
from pathlib import Path

from .bench import load_manifest, render_text, run_manifest, write_report
from .constraints import validate_value
from .decoders import (
    ARGMAX,
    BEAM,
    BEAMVAR,
    PROPOSAL_BRANCH,
    PROPOSAL_EXHAUSTIVE,
    PROPOSAL_SAMPLE,
    VAR,
    DecoderConfig,
    decode,
)
from .errors import (
    BackendUnavailable,
    ConstraintViolation,
    ContextTooLong,
    DeadEnd,
    DynamicProgramError,
    ForcedScoringUnsupported,
    IllegalToken,
    InstanceTooLarge,
    ManifestError,
    MissingBinding,
    ModelFileError,
    SketchSyntaxError,
    TemplateUnsatisfiable,
    UnsegmentableText,
)
from .lm import NGramLM, TableLM
from .scoring import ScoreParams, normalization_weight
from .sketch import load_sketch


class UsageError(Exception):
    """Configuration problem detected before any work happens."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the exit-code contract reserves 2
    # for decode failures, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sketchdec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    backend_flags = _Parser(add_help=False)
    backend_flags.add_argument(
        "--backend",
        required=True,
        help="backend spec: table:PATH | ngram:PATH | http:URL,model=NAME",
    )
    backend_flags.add_argument("--timeout-ms", type=int, default=30000)
    backend_flags.add_argument("--retries", type=int, default=3)

    decode_flags = _Parser(add_help=False)
    decode_flags.add_argument("--sketch", required=True, help="sketch JSON file")
    decode_flags.add_argument(
        "--decoder",
        choices=(ARGMAX, BEAM, VAR, BEAMVAR),
        default=BEAMVAR,
    )
    decode_flags.add_argument(
        "--width",
        type=int,
        default=None,
        help="beam width (default 2; argmax fixes it to 1)",
    )
    decode_flags.add_argument("--alpha", type=float, default=0.7)
    decode_flags.add_argument("--beta", type=float, default=0.0)
    decode_flags.add_argument(
        "--proposal",
        choices=(PROPOSAL_BRANCH, PROPOSAL_SAMPLE, PROPOSAL_EXHAUSTIVE),
        default=PROPOSAL_BRANCH,
    )
    decode_flags.add_argument("--seed", type=int, default=0)
    decode_flags.add_argument(
        "--max-tokens", type=int, default=None, help="global token cap override"
    )

    p_decode = sub.add_parser(
        "decode", parents=[decode_flags, backend_flags], help="fill a sketch"
    )
    p_decode.add_argument("--emit-tree", default=None, help="also dump the search tree")
    p_decode.set_defaults(handler=cmd_decode)

    p_score = sub.add_parser(
        "score", parents=[backend_flags], help="score supplied bindings"
    )
    p_score.add_argument("--sketch", required=True)
    p_score.add_argument(
        "--bindings",
        required=True,
        help="path to a JSON file mapping variable names to values",
    )
    p_score.set_defaults(handler=cmd_score)

    p_bench = sub.add_parser("bench", help="run a benchmark manifest")
    p_bench.add_argument("manifest", help="manifest JSON file")
    p_bench.add_argument("--filter", default=None, help="run only this task")
    p_bench.set_defaults(handler=cmd_bench)

    p_tree = sub.add_parser(
        "tree", parents=[decode_flags, backend_flags], help="decode and dump the tree"
    )
    p_tree.add_argument("--emit-tree", required=True, help="NDJSON output path")
    p_tree.set_defaults(handler=cmd_decode)

    return parser


def parse_backend_spec(spec: str) -> tuple:
    kind, sep, rest = spec.partition(":")
    if not sep or kind not in ("table", "ngram", "http") or not rest:
        raise UsageError(
            f"bad backend spec {spec!r}; expected table:PATH, ngram:PATH, "
            f"or http:URL,model=NAME"
        )
    if kind != "http":
        return (kind, rest)
    url, sep2, model = rest.rpartition(",model=")
    if not sep2 or not url or not model:
        raise UsageError(f"http backend spec {spec!r} must end with ,model=NAME")
    return ("http", url, model)


def build_backend(args):
    parsed = parse_backend_spec(args.backend)
    if parsed[0] == "table":
        return TableLM.from_file(parsed[1])
    if parsed[0] == "ngram":
        return NGramLM.from_file(parsed[1])
    # imported here, so local backends never load the HTTP stack
    from .remote import API_KEY_ENV, RemoteCompletionsLM

    if not os.environ.get(API_KEY_ENV):
        raise UsageError(f"{API_KEY_ENV} must be set for http backends")
    try:
        return RemoteCompletionsLM(
            parsed[1],
            parsed[2],
            timeout_s=args.timeout_ms / 1000.0,
            retries=args.retries,
        )
    except ValueError as e:
        raise UsageError(f"bad backend flags: {e}") from e


def _resolved_width(args) -> int:
    if args.width is None:
        return 1 if args.decoder == ARGMAX else 2
    if args.decoder == ARGMAX and args.width != 1:
        raise UsageError("argmax decodes greedily; --width must be 1 or omitted")
    return args.width


def cmd_decode(args) -> int:
    width = _resolved_width(args)
    emit_tree = getattr(args, "emit_tree", None)
    sketch = load_sketch(args.sketch)
    try:
        config = DecoderConfig(
            kind=args.decoder,
            width=width,
            score=ScoreParams(alpha=args.alpha, beta=args.beta),
            proposal=args.proposal,
            seed=args.seed,
            global_max_tokens=args.max_tokens,
            record_tree=emit_tree is not None,
        )
    except ValueError as e:
        raise UsageError(f"bad decoder flags: {e}") from e
    backend = build_backend(args)
    result = decode(sketch, backend, config)
    if emit_tree is not None:
        Path(emit_tree).write_text(result.tree.to_ndjson(), encoding="utf-8")
    print(result.text)
    for binding in result.bindings:
        weight = normalization_weight(config.score, binding.token_count)
        value = json.dumps(binding.value, ensure_ascii=False)
        print(
            f"{binding.name}\t{value}\t{binding.raw_logprob:.6f}"
            f"\t{binding.raw_logprob * weight:.6f}"
        )
    return 0


def cmd_score(args) -> int:
    sketch = load_sketch(args.sketch)
    try:
        data = json.loads(Path(args.bindings).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise UsageError(f"bindings file is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(f"bindings file is not valid JSON: {e}") from e
    if not isinstance(data, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in data.items()
    ):
        raise UsageError("bindings must be a JSON object mapping names to strings")

    specs = [c.var for c in sketch.chunks if c.is_var]
    for spec in specs:
        if spec.name not in data:
            raise MissingBinding(spec.name)
    extra = [name for name in data if name not in {s.name for s in specs}]
    if extra:
        raise ConstraintViolation(extra[0], "not a variable in this sketch")
    problems = []
    for spec in specs:
        try:
            validate_value(spec, data[spec.name])
        except ValueError as e:
            problems.append(ConstraintViolation(spec.name, str(e)))
    if problems:
        for p in problems[1:]:
            print(f"sketchdec: decode failure: {p}", file=sys.stderr)
        raise problems[0]

    backend = build_backend(args)
    prefix: list[int] = []
    total = 0.0
    for i, chunk in enumerate(sketch.chunks):
        if chunk.is_det:
            text, label = chunk.text, json.dumps(chunk.text, ensure_ascii=False)
        else:
            text, label = data[chunk.var.name], chunk.var.name
        tokens = backend.tokenize(text) if text else []
        logprobs = backend.score_forced(tuple(prefix), tokens) if tokens else []
        raw = fsum(logprobs)
        print(f"{i}\t{chunk.kind}\t{label}\t{raw:.6f}")
        prefix.extend(tokens)
        total += raw
    print(f"total\t{total:.6f}")
    return 0


def cmd_bench(args) -> int:
    rows = load_manifest(args.manifest)
    report = run_manifest(rows, task_filter=args.filter)
    json_path, txt_path = write_report(report, args.manifest)
    sys.stdout.write(render_text(report, include_metadata=False))
    print(f"wrote {json_path}")
    print(f"wrote {txt_path}")
    return 0


def entrypoint(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args)
    except UsageError as e:
        print(f"sketchdec: {e}", file=sys.stderr)
        return 1
    except (BackendUnavailable, ContextTooLong, ForcedScoringUnsupported) as e:
        print(f"sketchdec: backend failure: {e}", file=sys.stderr)
        return 3
    except (
        TemplateUnsatisfiable,
        ConstraintViolation,
        MissingBinding,
        DeadEnd,
        IllegalToken,
        InstanceTooLarge,
        UnsegmentableText,
        DynamicProgramError,
    ) as e:
        print(f"sketchdec: decode failure: {e}", file=sys.stderr)
        return 2
    except (SketchSyntaxError, ModelFileError, ManifestError) as e:
        print(f"sketchdec: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"sketchdec: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(entrypoint())


if __name__ == "__main__":
    main()
