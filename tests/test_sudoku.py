"""Digit-placement grid task: trap pairs punish greedy decoding."""
import pytest

from sketchdec.decoders import DecoderConfig, decode, decode_argmax, decode_beamvar
from sketchdec.lm import ordered_sum
from sketchdec.scoring import ScoreParams
from sketchdec.sketch import Binding, Bindings, Chunk, OneOf, Sketch, VariableSpec
from sketchdec.tasks import dungeon, sudoku


def test_generated_instances_are_valid():
    for seed in range(5):
        for blanks in range(1, 7):
            instance, sketch, backend = sudoku.gen_sudoku(seed, blanks)
            assert len(instance.cells) == 9
            assert len(instance.blanks) == blanks
            assert sorted(instance.solution) == sorted(sudoku.DIGITS)
            # the recorded solution actually fills the blanks
            for pos, cell in enumerate(instance.cells):
                if cell is not None:
                    assert instance.solution[pos] == cell


def test_instances_share_the_one_of_index(monkeypatch):
    """Each instance builds its own sketch and backend, but their OneOf
    sets share one tuple and their backends one vocabulary, so once the
    first instance is decoded the others add no index entry."""
    suite = sudoku.suite(0)
    vocab = suite[0][2].vocab
    assert all(backend.vocab is vocab for _, _, backend in suite)
    index = {}
    monkeypatch.setitem(vars(vocab), "_one_of", index)
    configs = [DecoderConfig(kind="argmax", width=1)] + [
        DecoderConfig(kind=k, width=2) for k in ("beam", "var", "beamvar")
    ]
    for config in configs:
        decode(suite[0][1], suite[0][2], config)
    first = len(index)
    assert first > 0
    for _, sketch, backend in suite[1:]:
        for config in configs:
            decode(sketch, backend, config)
    assert len(index) == first


def test_blank_count_validation():
    with pytest.raises(ValueError):
        sudoku.gen_sudoku(0, 0)
    with pytest.raises(ValueError):
        sudoku.gen_sudoku(0, 7)


def test_sketch_variables_match_blanks():
    instance, sketch, _ = sudoku.gen_sudoku(3, 4)
    names = [c.var.name for c in sketch.chunks if c.is_var]
    assert names == [f"C{pos + 1}" for pos in instance.blanks]
    for chunk in sketch.chunks:
        if chunk.is_var:
            assert chunk.var.one_of.members == tuple(sorted(sudoku.DIGITS))
            assert chunk.var.max_tokens == 1


def test_solved_checker_is_independent():
    instance, _, _ = sudoku.gen_sudoku(1, 2)
    right = Bindings(
        tuple(
            Binding(name=f"C{pos + 1}", value=instance.solution[pos])
            for pos in instance.blanks
        )
    )
    assert sudoku.solved(instance, right)
    # swap one blank to a digit that is already fixed elsewhere
    taken = next(c for c in instance.cells if c is not None)
    wrong = Bindings(
        (
            Binding(name=f"C{instance.blanks[0] + 1}", value=taken),
            *(
                Binding(name=f"C{pos + 1}", value=instance.solution[pos])
                for pos in instance.blanks[1:]
            ),
        )
    )
    assert not sudoku.solved(instance, wrong)
    assert not sudoku.solved(instance, Bindings())  # missing blanks


def test_suite_composition():
    instances = sudoku.suite(seed=0)
    assert [len(i.blanks) for i, _, _ in instances] == list(sudoku.SUITE_BLANKS)


def test_greedy_falls_into_the_trap():
    instance, sketch, backend = sudoku.gen_sudoku(7, 2)
    greedy = decode_argmax(sketch, backend)
    assert not sudoku.solved(instance, greedy.bindings)
    searched = decode_beamvar(sketch, backend, width=2)
    assert sudoku.solved(instance, searched.bindings)


def test_task_report_counts():
    reports = {r.decoder: r for r in sudoku.run_sudoku_task()}
    assert reports["argmax"].solved_count == 1
    assert reports["var"].solved_count == 10
    assert reports["beamvar"].solved_count == 10
    assert all(r.total == 10 for r in reports.values())
    assert (
        reports["beamvar"].mean_normalized_score
        > reports["argmax"].mean_normalized_score
    )


def sudoku_decodes(config):
    return [decode(sketch, backend, config) for _, sketch, backend in sudoku.suite(0)]


def dungeon_decodes(config):
    return [
        decode(dungeon.dungeon_source(i), dungeon.dungeon_backend(i), config)
        for i in dungeon.suite(0)
    ]


@pytest.mark.parametrize(
    "run_task, decodes",
    [(sudoku.run_sudoku_task, sudoku_decodes), (dungeon.run_dungeon_task, dungeon_decodes)],
    ids=["sudoku", "dungeon"],
)
def test_task_mean_is_scored_under_the_configs_own_parameters(run_task, decodes):
    config = DecoderConfig(kind="argmax", width=1, score=ScoreParams(alpha=1.0))
    (report,) = run_task(configs=[config])
    norms = [r.best.normalized_score(config.score) for r in decodes(config)]
    assert report.mean_normalized_score.hex() == (ordered_sum(norms) / len(norms)).hex()


def reordered_sketch(instance, name: str = "sudoku-reordered") -> Sketch:
    """Transform: present all fixed cells first, then the blanks."""
    fixed_part = " ".join(c for c in instance.cells if c is not None)
    chunks = [Chunk.det(fixed_part + "\n")]
    for pos in instance.blanks:
        chunks.append(
            Chunk.variable(
                VariableSpec(
                    name=f"C{pos + 1}",
                    one_of=OneOf(members=sudoku.DIGITS),
                    max_tokens=1,
                )
            )
        )
        chunks.append(Chunk.det("\n" if pos == instance.blanks[-1] else " "))
    return Sketch(name=name, chunks=tuple(chunks))


def test_reordered_sketch_shape():
    instance, _, _ = sudoku.gen_sudoku(2, 3)
    sketch = reordered_sketch(instance)
    assert sketch.chunks[0].is_det
    names = [c.var.name for c in sketch.chunks if c.is_var]
    assert names == [f"C{pos + 1}" for pos in instance.blanks]
    assert sketch.chunks[-1].text.endswith("\n")
