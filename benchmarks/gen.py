"""Seeded synthetic inputs for the kgqa-env benchmark (no downloads).

One call of :func:`generate` writes, into one directory:

- ``kg.tsv``: about 2x10^5 triples with a skewed background degree
  distribution, hub entities carrying 300-1000 Freebase-style
  ``domain.type.property`` relations, and dedicated low-degree entities for
  the fan-out questions;
- ``qa_hub.jsonl``: 1- and 2-hop questions that start at the hubs;
- ``qa_fanout.jsonl``: chained multi-answer questions fanning out to 5-200
  heads, 3-hop chains and inter/union/negation plans;
- ``qa_remote.jsonl``: the moderate fan-out subset of ``qa_fanout.jsonl``;
- ``qa_probe.jsonl`` and ``probe.json``: inputs of the traced-run probes;
- ``web.jsonl``: one record per gold (head, relation) pair, padded with
  non-matching records to 10^5 and shuffled.

Critical triples are the gold path to the answers, as in the bundled toy
suite: for an intersection or a negation only the triples reaching an
answer are listed. Every entity a question touches is its own, so removing
one question's triples never breaks another question's path.

The relation counts of the hubs and the fan-outs, and the answer counts of
every question, are fixed ladders; the seed chooses names, relations, tails
and order. That keeps the work per pass the same from seed to seed while the
inputs differ.

Run ``python3 benchmarks/gen.py --seed N --out DIR [--check]``; ``--check``
also generates a second time and asserts byte-identical files.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import random
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FILES = ("kg.tsv", "qa_hub.jsonl", "qa_fanout.jsonl", "qa_remote.jsonl", "qa_probe.jsonl", "probe.json", "web.jsonl")

_SYLLABLES = (
    "ka ve lo ri ta mu sen dor fal gri hal jun kel mor nes pav qui ros sul tem "
    "ul var wex yor zan bel cor dun eth fyr gol hin ist jor kav lum mir nor oth"
).split()
_DOMAINS = (
    "film music people location book sports government education business tv "
    "medicine biology chemistry organization award architecture aviation food "
    "military religion language computer geography law olympics theater travel "
    "visual_art fictional_universe astronomy"
).split()
_TYPES = (
    "person film actor album artist country city university company team "
    "league author work event disease drug species building airport dish "
    "unit office position party character planet genre instrument recording "
    "station river mountain school program series episode"
).split()
_PROPS = (
    "directed_by written_by produced_by place_of_birth place_of_death nationality "
    "spouse children parents sibling profession employer member_of founded_by "
    "headquarters capital currency official_language population_source area "
    "located_in contains borders adjoins part_of genre language country_of_origin "
    "release_date initial_release subject notable_for award_won nominated_for "
    "starring music_by edited_by cinematography distributed_by based_on sequel "
    "prequel instrument label record_label artist_of composer lyricist "
    "team_of coach sport league_of season venue opened_by architect_of designer "
    "treatment symptom cause risk_factor drug_class manufacturer ingredient "
    "cuisine origin_of taxonomy parent_taxon rank religion_of practiced_by "
    "jurisdiction court judge legislature governing_body elected_by office_holder "
    "appointed_by successor predecessor school_of alumni degree major advisor"
).split()


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The defaults are the benchmark's; tests pass smaller ones."""

    n_triples: int = 200_000
    n_web: int = 100_000
    background_entities: int = 40_000
    hub_relations: tuple[int, ...] = tuple(range(300, 1001, 25))  # 29 hubs; every other one, 800 included, is asked
    # Dense rungs up to 40 heads keep the rollout-time distribution dense
    # around its median; a few wide ones reach 200 heads. With the chains and
    # set plans, qa_fanout has 25 questions and qa_remote 15: an odd count
    # puts the median rollout inside one question's samples instead of on
    # the gap between two questions' costs.
    fanouts: tuple[int, ...] = (5, 6, 8, 10, 12, 14, 17, 20, 24, 28, 34, 40, 48, 68, 100, 200)
    chain3_fanouts: tuple[int, ...] = (5, 9, 15)
    set_algebra_each: int = 2
    remote_max_fanout: int = 40
    probe_fanout: int = 420


@dataclass
class _Graph:
    rng: random.Random
    triples: set = field(default_factory=set)
    pool: list = field(default_factory=list)
    counter: int = 0

    def entity(self) -> str:
        """A fresh entity id such as ``E000123_Kavel_Mirsun``. The numbered
        prefix makes every entity's word-token set unique and makes ids sort
        in creation order, so every seed lists a question's critical triples
        in the same structural order."""
        self.counter += 1
        a, b, c, d = self.rng.choices(_SYLLABLES, k=4)
        return f"E{self.counter:06d}_{(a + b).capitalize()}_{(c + d).capitalize()}"

    def add(self, h: str, r: str, t: str) -> tuple[str, str, str]:
        self.triples.add((h, r, t))
        return (h, r, t)


def relation_vocabulary(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct ``domain.type.property`` names in seeded order."""
    out: set[str] = set()
    while len(out) < n:
        prop = rng.choice(_PROPS)
        if rng.random() < 0.3:
            prop = f"{prop}_{rng.choice(_PROPS).split('_')[0]}"
        out.add(f"{rng.choice(_DOMAINS)}.{rng.choice(_TYPES)}.{prop}")
    names = sorted(out)
    rng.shuffle(names)
    return names


def display(entity: str) -> str:
    return entity.replace("_", " ")


def _type_of(relation: str) -> str:
    return relation.split(".")[1]


def _qa(qid, question, topics, answers, critical, plan) -> dict:
    return {
        "id": qid,
        "question": question,
        "topic_entities": list(topics),
        "answers": [[display(a)] for a in sorted(answers)],
        "critical_triples": [list(t) for t in sorted(critical)],
        "plan": plan,
    }


def _ans(relation: str, head: str) -> str:
    return f"Ans({_type_of(relation)} | {relation}({head}, ?))"


def _low_degree(g: _Graph, rels: list[str], entity: str, avoid: str, k: int) -> None:
    """Give a dedicated entity ``k`` extra relations to background entities."""
    for r in [r for r in g.rng.sample(rels, k + 1) if r != avoid][:k]:
        g.add(entity, r, g.rng.choice(g.pool))


def _fanout_question(g, rels, qid, fanout, hops) -> dict:
    """Topic --r_a--> fanout heads --r_b--> one tail each (--r_c--> one more)."""
    rng = g.rng
    r_hops = rng.sample(rels, hops)
    topic = g.entity()
    _low_degree(g, rels, topic, r_hops[0], 2)
    critical, frontier = [], [topic]
    for depth, r in enumerate(r_hops):
        nxt = []
        for h in frontier:
            n_tails = fanout if depth == 0 else 1
            for _ in range(n_tails):
                t = g.entity()
                critical.append(g.add(h, r, t))
                nxt.append(t)
            if depth > 0:
                _low_degree(g, rels, h, r, len(nxt) % 3)
        frontier = nxt
    lines = [f"S1: {_ans(r_hops[0], display(topic))}"]
    lines += [f"S{i + 1}: {_ans(r, f'S{i}')}" for i, r in enumerate(r_hops[1:], start=1)]
    question = f"Which {_type_of(r_hops[-1])} are reached from {display(topic)} through {' then '.join(r_hops)}?"
    return _qa(qid, question, [topic], frontier, critical, "\n".join(lines))


def _set_question(g, rels, qid, op, i) -> dict:
    """Two sources with overlapping multi-answer hops, combined by ``op``;
    the ``i``-th question of its kind has ``i`` more tails in each part."""
    rng = g.rng
    r1, r2 = rng.sample(rels, 2)
    e1, e2 = g.entity(), g.entity()
    for e, r in ((e1, r1), (e2, r2)):
        _low_degree(g, rels, e, r, 2)
    only1 = [g.entity() for _ in range(4 + i)]
    shared = [g.entity() for _ in range(3 + i)]
    only2 = [g.entity() for _ in range(4 + i)]
    by_tail: dict[str, list] = {}
    for t in only1 + shared:
        by_tail.setdefault(t, []).append(g.add(e1, r1, t))
    for t in shared + only2:
        by_tail.setdefault(t, []).append(g.add(e2, r2, t))
    answers = {"inter": shared, "union": only1 + shared + only2, "negation": only1}[op]
    critical = [tr for t in answers for tr in by_tail[t] if op != "negation" or tr[0] == e1]
    combine = {"inter": "inter(S1, S2)", "union": "union(S1, S2)", "negation": "negation(S1; S2)"}[op]
    plan = f"S1: {_ans(r1, display(e1))}\nS2: {_ans(r2, display(e2))}\nS3: {combine}"
    question = f"Which entities does {op} of {display(e1)} {r1} and {display(e2)} {r2} give?"
    return _qa(qid, question, [e1, e2], answers, critical, plan)


def generate(seed: int, out_dir: str | Path, sizes: Sizes = Sizes()) -> None:
    """Write every benchmark input file for ``seed`` into ``out_dir``."""
    rng = random.Random(seed)
    g = _Graph(rng)
    rels = relation_vocabulary(rng, 3000)
    qa_hub: list[dict] = []
    qa_fanout: list[dict] = []
    qa_remote: list[dict] = []

    g.pool = [g.entity() for _ in range(sizes.background_entities)]

    # Hubs: every hub relation has 1-3 popular tails from the background
    # pool. Every other hub of the ladder gets a question, alternately 1-hop
    # and 2-hop, whose answers are dedicated entities. Answer counts cycle
    # through 1-3 along the ladder, so each rung's work is the same for
    # every seed.
    for k, n_rel in enumerate(sizes.hub_relations):
        hub = g.entity()
        hub_rels = rng.sample(rels, n_rel)
        # The asked relation has a typical name length, so the edit-distance
        # work per question varies with the hub size, not with the name drawn.
        r1 = min(hub_rels[:40], key=lambda r: abs(len(r) - 27))
        for r in hub_rels:
            if r != r1:
                for t in rng.sample(g.pool, rng.randint(1, 3)):
                    g.add(hub, r, t)
        if k % 2:
            continue
        n_answers = 1 + k // 2 % 3
        if k % 4 == 0:
            answers = [g.entity() for _ in range(n_answers)]
            critical = [g.add(hub, r1, t) for t in answers]
            qa_hub.append(_qa(f"hub{k:02d}", f"Which {_type_of(r1)} is {r1} of {display(hub)}?", [hub],
                              answers, critical, f"S1: {_ans(r1, display(hub))}"))
            continue
        r_next = rng.choice(rels)
        answers, critical = [], []
        for j in range(n_answers):
            m, t = g.entity(), g.entity()
            critical.append(g.add(hub, r1, m))
            critical.append(g.add(m, r_next, t))
            _low_degree(g, rels, m, r_next, 1 + j)
            answers.append(t)
        plan = f"S1: {_ans(r1, display(hub))}\nS2: {_ans(r_next, 'S1')}"
        qa_hub.append(_qa(f"hub{k:02d}", f"Which {_type_of(r_next)} is {r_next} of the {r1} of {display(hub)}?",
                          [hub], answers, critical, plan))

    for i, f in enumerate(sizes.fanouts):
        q = _fanout_question(g, rels, f"fan{i:02d}", f, 2)
        qa_fanout.append(q)
        if f <= sizes.remote_max_fanout:
            qa_remote.append(q)
    for i, f in enumerate(sizes.chain3_fanouts):
        qa_fanout.append(_fanout_question(g, rels, f"chain{i:02d}", f, 3))
    for op in ("inter", "union", "negation"):
        for i in range(sizes.set_algebra_each):
            q = _set_question(g, rels, f"{op}{i:02d}", op, i)
            qa_fanout.append(q)
            if i == 0:
                qa_remote.append(q)
    probe_q = _fanout_question(g, rels, "probe00", sizes.probe_fanout, 2)

    gold_pairs = {(h, r) for q in qa_hub + qa_fanout + [probe_q] for (h, r, _) in map(tuple, q["critical_triples"])}

    # Background: skewed heads (weight ~ 1/rank^0.8), uniform tails.
    pool = g.pool
    weights = [1.0 / (i + 1) ** 0.8 for i in range(len(pool))]
    bg_rels = rels[:1500]
    target = sizes.n_triples
    while len(g.triples) < target:
        need = target - len(g.triples)
        heads = rng.choices(pool, weights=weights, k=need)
        for h, r, t in zip(heads, rng.choices(bg_rels, k=need), rng.choices(pool, k=need)):
            g.add(h, r, t)

    _check(g.triples, qa_hub + qa_fanout + [probe_q])

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "kg.tsv").open("w", encoding="utf-8") as fh:
        for h, r, t in sorted(g.triples):
            fh.write(f"{h}\t{r}\t{t}\n")
    for name, qs in (("qa_hub.jsonl", qa_hub), ("qa_fanout.jsonl", qa_fanout),
                     ("qa_remote.jsonl", qa_remote), ("qa_probe.jsonl", [probe_q])):
        with (out / name).open("w", encoding="utf-8") as fh:
            for q in qs:
                fh.write(json.dumps(q, sort_keys=True) + "\n")

    hub800 = qa_hub[sizes.hub_relations[::2].index(800)]
    probe = {
        "hub800": hub800["critical_triples"][0][:2],
        "typical": next(t[:2] for t in probe_q["critical_triples"] if t[0] == probe_q["topic_entities"][0]),
        "web_queries": [f"{display(h)} {r}" for h, r in sorted(gold_pairs)[:: max(1, len(gold_pairs) // 50)]],
    }
    (out / "probe.json").write_text(json.dumps(probe, sort_keys=True) + "\n", encoding="utf-8")
    _write_web(out / "web.jsonl", rng, g.triples, gold_pairs, sizes.n_web)


def _check(triples: set, questions: list[dict]) -> None:
    """Self-check: every critical triple is in the graph and every plan
    parses with the program's own plan parser."""
    from kgqa_env.plan import parse_plan

    for q in questions:
        for t in q["critical_triples"]:
            if tuple(t) not in triples:
                raise AssertionError(f"critical triple {t} of {q['id']} is not in the graph")
        parse_plan(q["plan"])


def _write_web(path: Path, rng: random.Random, triples: set, gold_pairs: set, n_web: int) -> None:
    """One record per gold (head, relation) pair listing every tail, then
    filler records that share vocabulary with real queries but carry one
    token no query contains, so they never match."""
    from kgqa_env.text import word_tokens as words

    tails: dict[tuple[str, str], list[str]] = {}
    for h, r, t in triples:
        if (h, r) in gold_pairs:
            tails.setdefault((h, r), []).append(t)
    records = []
    for (h, r) in sorted(gold_pairs):
        keys = sorted(set(words(display(h)) + words(r)))
        snippet = f"{display(h)} {' '.join(words(r))}: {', '.join(display(t) for t in sorted(tails[(h, r)]))}."
        records.append({"keys": keys, "snippet": snippet})
    vocab = sorted({w for r in _DOMAINS + _TYPES + _PROPS for w in words(r)} | set(_SYLLABLES))
    for n in range(max(0, n_web - len(records))):
        keys = sorted(set(rng.sample(vocab, rng.randint(2, 3)))) + [f"zq{n}"]
        snippet = " ".join(rng.choices(vocab, k=12)).capitalize() + "."
        records.append({"keys": keys, "snippet": snippet})
    rng.shuffle(records)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--check", action="store_true", help="generate twice and compare bytes")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    generate(args.seed, args.out)
    if args.check:
        with tempfile.TemporaryDirectory(dir=args.out) as again:
            generate(args.seed, again)
            for name in FILES:
                if not filecmp.cmp(Path(args.out) / name, Path(again) / name, shallow=False):
                    raise AssertionError(f"{name} differs between two generations with seed {args.seed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
