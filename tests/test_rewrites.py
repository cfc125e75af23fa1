"""Pinch, clip, collapse, reversal, and the rose reduction."""

import numpy as np
import pytest

from quivergauge import (
    Quiver,
    RelationSet,
    Word,
    betti_number,
    clip,
    collapse,
    pinch,
    reduce_to_rose,
    reverse_arrows,
    validate_relations,
)
from conftest import (
    comet,
    long_loop,
    long_path,
    one_arrow,
    one_loop,
    random_connected_quiver,
    theta,
    triangle,
)


def arrow_ids(q: Quiver) -> set[str]:
    return {a.name for a in q.arrows}


def test_pinch_two_loops_gives_rose():
    q = Quiver(("v0", "v1"), (("l0", "v0", "v0"), ("l1", "v1", "v1")))
    pinched, vmap = pinch(q, "v0", "v1")
    assert pinched.vertices == ("v0",)
    assert all(a.is_loop for a in pinched.arrows)
    assert pinched.n_arrows == 2
    assert vmap["v1"] == "v0" and vmap["v0"] == "v0"
    assert arrow_ids(q) == arrow_ids(pinched)


def test_pinch_one_arrow_gives_loop():
    pinched, _ = pinch(one_arrow(), "v0", "v1")
    assert pinched.n_vertices == 1
    assert pinched.arrow("a0").is_loop


def test_pinch_errors():
    with pytest.raises(ValueError):
        pinch(one_arrow(), "v0", "v0")
    with pytest.raises(ValueError):
        pinch(one_arrow(), "v0", "nope")


def test_clip():
    clipped = clip(one_loop(), "l0")
    assert clipped.n_arrows == 0 and clipped.vertices == ("v0",)
    clipped = clip(theta(), "a2")
    assert clipped.n_vertices == 2 and clipped.n_arrows == 2
    assert arrow_ids(theta()) != arrow_ids(clipped)
    with pytest.raises(ValueError):
        clip(one_loop(), "nope")


def test_collapse_tail_absorbs():
    # pendant tail arrow a0 from w into the 2-cycle on v0, v1
    q = Quiver(
        ("v0", "v1", "w"),
        (("a0", "w", "v0"), ("b0", "v0", "v1"), ("b1", "v1", "v0")),
    )
    merged, rels, step = collapse(q, RelationSet(), "a0")
    assert merged.vertices == ("v0", "v1")
    assert {a.name for a in merged.arrows} == {"b0", "b1"}
    assert step.merged == "v0" and step.tail == "w" and step.head == "v0"


def test_collapse_triangle_relation_translates():
    q, rels = triangle()
    merged, new_rels, _ = collapse(q, rels, "a0")
    assert merged.n_vertices == 2
    assert new_rels.relations == (Word.from_arrow_names(("a2", "a1")),)
    assert validate_relations(merged, new_rels) == ()


def test_collapse_loop_is_error():
    with pytest.raises(ValueError):
        collapse(one_loop(), RelationSet(), "l0")
    with pytest.raises(ValueError):
        collapse(one_arrow(), RelationSet(), "nope")


def test_collapse_counts_and_betti():
    rng = np.random.default_rng(5)
    for _ in range(30):
        q = random_connected_quiver(rng)
        non_loops = [a for a in q.arrows if not a.is_loop]
        if not non_loops:
            continue
        pick = non_loops[int(rng.integers(0, len(non_loops)))]
        merged, _, _ = collapse(q, RelationSet(), pick.name)
        assert merged.n_arrows == q.n_arrows - 1
        assert merged.n_vertices == q.n_vertices - 1
        assert betti_number(merged) == betti_number(q)


def test_pinch_clip_equals_collapse_either_order():
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = random_connected_quiver(rng)
        non_loops = [a for a in q.arrows if not a.is_loop]
        if not non_loops:
            continue
        a = non_loops[int(rng.integers(0, len(non_loops)))]
        collapsed, _, step = collapse(q, RelationSet(), a.name)
        via_clip_then_pinch, vmap1 = pinch(clip(q, a.name), a.tail, a.head)
        pinched, vmap2 = pinch(q, a.tail, a.head)
        via_pinch_then_clip = clip(pinched, a.name)
        assert collapsed == via_clip_then_pinch == via_pinch_then_clip
        merged = {v: step.merged if v in (step.tail, step.head) else v for v in q.vertices}
        assert merged == vmap1 == vmap2


def test_reduce_to_rose_long_loop():
    q = long_loop(6)
    rose_q, rels, trace = reduce_to_rose(q)
    assert rose_q.n_vertices == 1 and rose_q.n_arrows == 1
    assert len(trace.steps) == 5
    assert rels.relations == ()


def test_reduce_to_rose_tree_and_theta_and_comet():
    rose_q, _, _ = reduce_to_rose(long_path(4))
    assert rose_q.n_vertices == 1 and rose_q.n_arrows == 0
    rose_q, _, _ = reduce_to_rose(theta())
    assert rose_q.n_arrows == 2
    rose_q, _, _ = reduce_to_rose(comet())
    assert rose_q.n_arrows == 1


def test_reduce_to_rose_randomized_and_replay():
    from quivergauge import directed_path

    rng = np.random.default_rng(3)
    for max_vertices, max_arrows in ((8, 14), (100, 200)):
        for _ in range(20):
            q = random_connected_quiver(rng, max_vertices, max_arrows)
            # positive cycle relations: an arrow plus a directed return path
            words = []
            for i in rng.permutation(q.n_arrows)[:10]:
                a = q.arrows[i]
                back = directed_path(q, a.head, a.tail)
                if back is not None:
                    words.append(Word.from_application_order([(a.name, 1)] + [(n, 1) for n in back]))
            rels = RelationSet(tuple(words))
            rose_q, rose_rels, trace = reduce_to_rose(q, rels)
            assert rose_q.n_arrows == betti_number(q)
            # the one-pass reduction against one collapse at a time
            current, current_rels = q, rels
            for step in trace.steps:
                current, current_rels, replayed = collapse(current, current_rels, step.arrow)
                assert (replayed.arrow, replayed.tail, replayed.head, replayed.merged) == (
                    step.arrow,
                    step.tail,
                    step.head,
                    step.merged,
                )
            assert current == rose_q == trace.final
            assert current_rels == rose_rels == trace.final_relations


def test_reduce_to_rose_translates_relations_closed():
    q, rels = triangle()
    rose_q, new_rels, _ = reduce_to_rose(q, rels)
    assert rose_q.n_arrows == 1
    assert validate_relations(rose_q, new_rels) == ()
    assert len(new_rels.relations[0]) == 1  # the loop generator itself


def test_reduce_to_rose_disconnected_error():
    q = Quiver(("v0", "v1"), (("l", "v0", "v0"),))
    with pytest.raises(ValueError):
        reduce_to_rose(q)


def test_reduce_to_rose_rejects_an_invalid_relation_set():
    # both rewrites check the set they are given, before translating it away
    cycle = Quiver(("u", "v"), (("a", "u", "v"), ("b", "v", "u")))
    probes = (
        (triangle()[0], "a0", [("a1", "a0")], "does not close up"),
        (triangle()[0], "a0", [("zz",)], "unknown arrow 'zz'"),
        (cycle, "a", [("a",)], "word does not close up"),
        (cycle, "a", [("b", "b")], "consecutive letters do not compose"),
    )
    for q, arrow, words, message in probes:
        rels = RelationSet(tuple(Word.from_arrow_names(w) for w in words))
        for rewrite in (lambda: reduce_to_rose(q, rels), lambda: collapse(q, rels, arrow)):
            with pytest.raises(ValueError, match=f"invalid relation set: .*{message}"):
                rewrite()


def test_random_relation_translation_stays_valid():
    from quivergauge import directed_path
    from conftest import random_strongly_connected_quiver

    rng = np.random.default_rng(41)
    for _ in range(30):
        q = random_strongly_connected_quiver(rng)
        # build positive cycle relations: an arrow plus a directed return path
        words = []
        arrows = sorted(q.arrows, key=lambda a: a.name)
        for a in arrows[: int(rng.integers(1, 4))]:
            back = directed_path(q, a.head, a.tail)
            if back is None:
                continue
            words.append(
                Word.from_application_order([(a.name, 1)] + [(n, 1) for n in back])
            )
        rels = RelationSet(tuple(words))
        assert validate_relations(q, rels) == ()
        rose_q, translated, _ = reduce_to_rose(q, rels)
        assert validate_relations(rose_q, translated) == ()
        assert len(translated.relations) == len(words)
        for a in q.arrows:
            if not a.is_loop:
                merged, translated, _ = collapse(q, rels, a.name)
                assert validate_relations(merged, translated) == ()
                assert len(translated.relations) == len(words)


def test_reverse_arrows():
    q = one_arrow()
    reversed_q = reverse_arrows(q, {"a0"})
    assert reversed_q.arrow("a0").tail == "v1"
    assert reverse_arrows(q, set()) == q
    assert reverse_arrows(reversed_q, {"a0"}) == q
    assert reverse_arrows(one_loop(), {"l0"}) == one_loop()
    with pytest.raises(ValueError):
        reverse_arrows(q, {"zz"})


def test_arrows_equivalent():
    q = theta()
    pinched, _ = pinch(q, "v0", "v1")
    assert arrow_ids(q) == arrow_ids(pinched)
    assert arrow_ids(q) != arrow_ids(clip(q, "a0"))
