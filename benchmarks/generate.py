"""Seeded input generator: scales the in-repo fixtures to benchmark size.

Built from ``tests/fixtures`` only. Each fixture schema is cloned under new
``db_id``s; each fixture query becomes a template whose literals, where the
question states them, are redrawn from the clone's own rows. Every gold SQL
gets about two questions (paraphrase frames drawn from the seed), as in
Spider. Each target database gets a SQLite file with seeded rows.

For the target split it also plants the stub's answers: mostly gold echoes,
plus EM-miss rewrites, wrong literals, SQL outside the parser's grammar and
non-executable SQL. Every label is verified here with SQLite, so the
output checks hold for any seed.

Usage: python3 benchmarks/generate.py --workload NAME --seed N --out DIR [--size full|tiny]
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sqlite3
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, Workload  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
SPIDER_FIXTURES = ("spider/tables.json", ("spider/train.json", "spider/dev.json"))
BIRD_FIXTURES = ("bird/tables.json", ("bird/dev.json",))
# placeholder for the stub's address, which is known only once it serves
STUB_URL = "STUB_URL"
PIPELINE_SEED = 42

_PREFIXES = ("", "Tell me: ", "Please answer: ", "Query: ", "I would like to know: ",
             "Quick question: ", "Help me out: ", "Can you check: ", "Question: ",
             "For the report: ", "Look up: ", "Find out: ")
_SUFFIXES = ("", " Thanks.", " Please.", " Keep it short.", " (one query)",
             " Asap.", " Cheers.", " If possible.")

_FIRST = ("Ada", "Bo", "Chen", "Dana", "Eli", "Fay", "Gus", "Hana", "Ivo", "Jun", "Kai",
          "Lea", "Mo", "Nia", "Oto", "Pia", "Quin", "Rae", "Sol", "Tia", "Uma", "Vic")
_LAST = ("Soisalon", "Nolan", "Brown", "Sharp", "White", "Ito", "Kumar", "Lopez", "Moreau",
         "Novak", "Okafor", "Petrov", "Quist", "Rossi", "Silva", "Tanaka", "Umar", "Vogel")
_WORDS = ("Alpha", "Bridge", "Cedar", "Delta", "Echo", "Falcon", "Garden", "Harbor",
          "Iris", "Jade", "Kestrel", "Lumen", "Maple", "North", "Orbit", "Pine", "Quartz",
          "River", "Summit", "Tide", "Umber", "Vale", "Willow", "Hey", "Week", "Spring",
          "Fall", "Summer", "Winter", "France", "Peru", "Chile", "Japan", "Kenya")

# a literal compared against a named column: col op 'text' | number [AND number]
_LITERAL_RE = re.compile(
    r"(?P<col>[A-Za-z_]\w*)\s*\)?\s*(?P<op>=|!=|<>|>=|<=|>|<|\bLIKE\b|\bBETWEEN\b)\s*"
    r"(?P<lit>'[^']*'|\d+)(?:\s+AND\s+(?P<hi>\d+))?",
    re.IGNORECASE,
)
_FROM_RE = re.compile(r"\bFROM\s+([A-Za-z_]\w*)", re.IGNORECASE)
_SELECT_RE = re.compile(r"^\s*SELECT\s+(DISTINCT\s+)?", re.IGNORECASE)
_NUMBER_RE = re.compile(r"(?<![\w.'])\d+(?![\w.'])")


def _load_fixtures(fixtures: Path, dialect: str):
    tables_rel, example_rels = BIRD_FIXTURES if dialect == "bird" else SPIDER_FIXTURES
    catalog = {e["db_id"]: e for e in json.loads((fixtures / tables_rel).read_text("utf-8"))}
    templates: dict[str, list[dict]] = {}
    seen = set()
    for rel in example_rels:
        for rec in json.loads((fixtures / rel).read_text("utf-8")):
            sql = rec.get("query", rec.get("SQL"))
            key = (rec["db_id"], rec["question"], sql)
            if key in seen:
                continue
            seen.add(key)
            templates.setdefault(rec["db_id"], []).append(
                {"question": rec["question"], "sql": sql,
                 "evidence": rec.get("evidence"), "difficulty": rec.get("difficulty")}
            )
    return catalog, templates


def _fixture_literals(templates) -> dict[str, dict[str, list]]:
    """column name -> {"text": [...], "number": [...]} literals the fixtures use."""
    out: dict[str, dict[str, list]] = {}
    for rows in templates.values():
        for tpl in rows:
            for m in _LITERAL_RE.finditer(tpl["sql"]):
                slot = out.setdefault(m["col"].lower(), {"text": [], "number": []})
                lit = m["lit"]
                if lit.startswith("'"):
                    slot["text"].append(lit.strip("'").strip("%"))
                else:
                    slot["number"].extend(int(v) for v in (lit, m["hi"]) if v)
    return out


class _DbData:
    """Seeded rows for one cloned database, keyed by table."""

    def __init__(self, entry: dict, rng: random.Random, literals: dict):
        self.entry = entry
        names = entry["table_names_original"]
        cols = entry["column_names_original"]
        types = entry["column_types"]
        self.columns = {t: [] for t in range(len(names))}
        for idx, (t, name) in enumerate(cols):
            if t >= 0:
                self.columns[t].append((idx, name, types[idx]))
        pk_cols = set()
        for pk in entry.get("primary_keys", []):
            pk_cols.update(pk if isinstance(pk, list) else [pk])
        parent_of = {child: parent for child, parent in entry.get("foreign_keys", [])}
        self.rows_per_table = {t: rng.randint(30, 240) for t in self.columns}
        pools: dict[str, list] = {}
        values: dict[int, list] = {}  # column index -> generated column values
        for t in self._table_order(cols, parent_of):
            n = self.rows_per_table[t]
            for idx, name, kind in self.columns[t]:
                if idx in parent_of and parent_of[idx] in values:
                    pool = sorted(set(values[parent_of[idx]]), key=repr)
                else:
                    pool = pools.setdefault(name.lower(), self._pool(name, kind, rng, literals))
                if idx in pk_cols:
                    n = min(n, len(pool))
                    values[idx] = rng.sample(pool, n)
                else:
                    values[idx] = rng.choices(pool, k=n)
            self.rows_per_table[t] = n
        self.values = values
        self.by_name: dict[str, list] = {}
        for idx, (t, name) in enumerate(cols):
            if t >= 0:
                self.by_name.setdefault(name.lower(), []).extend(
                    values[idx][: self.rows_per_table[t]])

    @staticmethod
    def _table_order(cols, parent_of) -> list[int]:
        deps: dict[int, set[int]] = {}
        for child, parent in parent_of.items():
            if cols[child][0] != cols[parent][0]:
                deps.setdefault(cols[child][0], set()).add(cols[parent][0])
        order: list[int] = []
        tables = sorted({t for t, _ in cols if t >= 0})
        while len(order) < len(tables):
            for t in tables:
                if t not in order and deps.get(t, set()) <= set(order):
                    order.append(t)
                    break
            else:
                raise ValueError("cyclic foreign keys in fixture catalog")
        return order

    @staticmethod
    def _pool(name: str, kind: str, rng: random.Random, literals: dict) -> list:
        """Values a column draws from; columns of one name share a pool, so
        equi-joins across tables find matches."""
        folded = name.lower()
        seen = literals.get(folded, {"text": [], "number": []})
        if folded.endswith("id"):
            if kind == "number":
                return list(range(1, 301))
            return [f"{i:05d}" for i in range(1, 301)]
        if kind == "boolean" or kind == "number" and folded.startswith(("user_", "is_")):
            return [0, 1]
        if kind == "number":
            if "year" in folded:
                return list(range(1995, 2021))
            if folded == "age":
                return list(range(18, 71))
            top = max(seen["number"], default=500) * 2
            return sorted({rng.randint(0, top) for _ in range(60)} | set(seen["number"]))
        if kind == "time":
            return [f"20{rng.randint(10, 22):02d}-{rng.randint(1, 12):02d}-"
                    f"{rng.randint(1, 28):02d} 0{rng.randint(0, 9)}:00:00" for _ in range(40)]
        if "year" in folded:
            return sorted({str(y) for y in range(1998, 2021)} | set(seen["text"]))
        if folded.endswith("url"):
            return [f"https://example.org/{folded}/{i}" for i in range(1, 80)]
        size = rng.randint(8, 36)
        if "name" in folded or "title" in folded or folded in ("critic",):
            made = {f"{rng.choice(_FIRST)} {rng.choice(_LAST)}" for _ in range(size)}
        else:
            made = {f"{rng.choice(_WORDS)} {rng.randint(1, 9)}" if rng.random() < 0.3
                    else rng.choice(_WORDS) for _ in range(size)}
        return sorted(made | set(seen["text"]))

    def write_sqlite(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.entry["table_names_original"]
        sql_type = {"number": "INTEGER", "boolean": "INTEGER"}
        conn = sqlite3.connect(path)
        try:
            for t, columns in self.columns.items():
                ddl = ", ".join(f'"{name}" {sql_type.get(kind, "TEXT")}'
                                for _, name, kind in columns)
                conn.execute(f'CREATE TABLE "{names[t]}" ({ddl})')
                n = self.rows_per_table[t]
                rows = list(zip(*(self.values[idx][:n] for idx, _, _ in columns)))
                marks = ", ".join("?" for _ in columns)
                conn.executemany(f'INSERT INTO "{names[t]}" VALUES ({marks})', rows)
            conn.commit()
        finally:
            conn.close()


def _stated(tpl: dict, m: re.Match) -> bool:
    """Whether the question states the literal(s) of this comparison."""
    lits = [m["lit"]] + ([m["hi"]] if m["hi"] else [])
    return all(re.search(rf"(?<!\w){re.escape(lit.strip(chr(39)).strip('%'))}(?!\w)",
                         tpl["question"]) for lit in lits)


def _instantiate(tpl: dict, data: _DbData, rng: random.Random) -> tuple[str, str, str | None]:
    """Redraw each literal the question states from the clone's own values."""
    sql, question, evidence = tpl["sql"], tpl["question"], tpl["evidence"]
    out, pos = [], 0
    for m in _LITERAL_RE.finditer(sql):
        pool = data.by_name.get(m["col"].lower())
        lits = [m["lit"]] + ([m["hi"]] if m["hi"] else [])
        if not pool or not _stated(tpl, m):
            continue
        new = []
        for lit in lits:
            old = lit.strip("'").strip("%")
            if lit.startswith("'"):
                value = str(rng.choice(pool))
                if "%" in lit:
                    value = rng.choice(value.split())
                new.append(lit.replace(old, value.replace("'", "")))
            else:
                numbers = [v for v in pool if isinstance(v, int)]
                if not numbers:
                    new.append(lit)
                    continue
                new.append(str(rng.choice(numbers)))
        if m["hi"]:
            new = [str(v) for v in sorted(int(v) for v in new)]
        for lit, repl in zip(lits, new):
            old, fresh = lit.strip("'").strip("%"), repl.strip("'").strip("%")
            question = question.replace(old, fresh, 1)
            if evidence:
                evidence = evidence.replace(old, fresh, 1)
        text = m.group(0)
        rebuilt = text[: m.start("lit") - m.start()] + new[0]
        if m["hi"]:
            rebuilt += text[m.end("lit") - m.start(): m.start("hi") - m.start()] + new[1]
        out.append(sql[pos: m.start()] + rebuilt)
        pos = m.end()
    out.append(sql[pos:])
    return "".join(out), question, evidence


def _run(conn: sqlite3.Connection, sql: str):
    return conn.execute(sql).fetchall()


def _same(a: list, b: list, ordered: bool) -> bool:
    return a == b if ordered else sorted(map(repr, a)) == sorted(map(repr, b))


def _plant(label: str, gold: str, conn: sqlite3.Connection, rng: random.Random) -> str | None:
    """A planted answer of the given label, verified against the database;
    None when this gold admits no such answer."""
    if label == "em-miss":
        m = _SELECT_RE.match(gold)
        return gold[: m.start(1)] + gold[m.end(1):] if m[1] else \
            gold[: m.end()] + "DISTINCT " + gold[m.end():]
    if label == "unparseable":
        sql = f"WITH bench_cte AS ({gold}) SELECT * FROM bench_cte"
        try:
            _run(conn, sql)
        except sqlite3.Error:
            return None
        return sql
    if label == "non-executable":
        m = _FROM_RE.search(gold)
        sql = gold[: m.end(1)] + "_missing" + gold[m.end(1):]
        try:
            _run(conn, sql)
        except sqlite3.Error:
            return sql
        return None
    if label == "wrong-literal":
        gold_rows = _run(conn, gold)
        ordered = re.search(r"\border\s+by\b", gold, re.IGNORECASE) is not None
        spots = list(re.finditer(r"'[^']*'", gold)) + list(_NUMBER_RE.finditer(gold))
        rng.shuffle(spots)
        for spot in spots:
            lit = spot.group(0)
            if lit.startswith("'"):
                candidates = [f"'{w}'" for w in _WORDS] + ["'%e%'", "'%a%'"]
            else:
                value = int(lit)
                candidates = [str(value + d) for d in (1, -1, 2, 7, 100, 1000)]
            for fresh in rng.sample(candidates, len(candidates)):
                sql = gold[: spot.start()] + fresh + gold[spot.end():]
                try:
                    if not _same(_run(conn, sql), gold_rows, ordered):
                        return sql
                except sqlite3.Error:
                    continue
        return None
    raise ValueError(f"unknown plant label {label!r}")


def _split_examples(n, db_ids, data, templates, base_of, rng, dialect):
    """n examples over the given databases; each gold gets 1-3 questions.

    Every (database, template) pair is visited once per pass, in a seeded
    order, so the template mix, and with it the per-example cost, barely
    moves with the seed.
    """
    examples: list[dict] = []
    questions: set[str] = set()
    golds: set[tuple[str, str]] = set()
    pairs = [(db_id, tpl) for db_id in db_ids for tpl in templates[base_of[db_id]]]
    # a template without a stated literal has one gold per database: one pass
    varying = [(db_id, tpl) for db_id, tpl in pairs
               if any(_stated(tpl, m) for m in _LITERAL_RE.finditer(tpl["sql"]))]
    frames = [(p, s) for p in _PREFIXES for s in _SUFFIXES]
    rng.shuffle(frames)
    queue: list = []
    passes = 0
    attempts = 0
    while len(examples) < n:
        attempts += 1
        if attempts > 200 * n + 1000:
            raise RuntimeError(f"cannot draw {n} distinct examples from the fixtures")
        if not queue:
            source = pairs if passes == 0 else varying
            if not source:
                raise RuntimeError(f"cannot draw {n} distinct examples from the fixtures")
            queue = rng.sample(source, len(source))
            passes += 1
        db_id, tpl = queue.pop()
        gold, base_q, evidence = _instantiate(tpl, data[db_id], rng)
        if (db_id, gold) in golds:
            continue
        wanted = min(rng.choice((1, 2, 2, 2, 3)), n - len(examples))
        made = []
        start = rng.randrange(len(frames))
        for prefix, suffix in frames[start:] + frames[:start]:
            question = f"{prefix}{base_q}{suffix}"
            if question not in questions:
                made.append(question)
                if len(made) == wanted:
                    break
        if not made:
            continue
        golds.add((db_id, gold))
        for question in made:
            questions.add(question)
            rec = {"db_id": db_id, "question": question}
            if dialect == "bird":
                rec.update({"evidence": evidence or "", "SQL": gold,
                            "difficulty": tpl["difficulty"] or "simple"})
            else:
                rec["query"] = gold
            examples.append(rec)
    return examples


def _stats(examples: list[dict]) -> dict:
    counts = Counter((e["db_id"], e.get("query", e.get("SQL"))) for e in examples)
    shared = sum(c for c in counts.values() if c > 1)
    return {
        "examples": len(examples),
        "distinct_golds": len(counts),
        "shared_gold_share": round(shared / len(examples), 4) if examples else 0.0,
        "databases": len({e["db_id"] for e in examples}),
    }


def generate(workload: Workload, seed: int, out: Path, size: str = "full",
             fixtures: Path = FIXTURES) -> dict:
    """Write the dataset, databases, planted answers and run config to ``out``."""
    rng = random.Random(f"{workload.name}:{seed}")
    sz = workload.sizes[size]
    catalog, templates = _load_fixtures(fixtures, workload.dialect)
    literals = _fixture_literals(templates)
    bases = sorted(templates)
    entries, data, base_of = [], {}, {}
    split_dbs: dict[str, list[str]] = {"train": [], "dev": []}
    for split, count, tag in (("train", sz.train_dbs, "t"), ("dev", sz.dev_dbs, "d")):
        for i in range(count):
            base = bases[i % len(bases)]
            db_id = f"{base}_{tag}{i:03d}"
            entry = dict(catalog[base], db_id=db_id)
            entries.append(entry)
            base_of[db_id] = base
            data[db_id] = _DbData(entry, random.Random(f"{seed}:rows:{db_id}"), literals)
            split_dbs[split].append(db_id)
    out.mkdir(parents=True, exist_ok=True)
    (out / "tables.json").write_text(json.dumps(entries, indent=1), "utf-8")
    splits = {}
    for split, n in (("train", sz.train), ("dev", sz.dev)):
        if n:
            splits[split] = _split_examples(n, split_dbs[split], data, templates, base_of,
                                            rng, workload.dialect)
            (out / f"{split}.json").write_text(json.dumps(splits[split], indent=1), "utf-8")

    targets = splits[workload.target_split]
    target_dbs = sorted({e["db_id"] for e in targets})
    for db_id in target_dbs:
        data[db_id].write_sqlite(out / "database" / db_id / f"{db_id}.sqlite")

    answers, labels = _plant_answers(workload, targets, out, rng)
    (out / "answers.json").write_text(json.dumps(answers, indent=1, sort_keys=True), "utf-8")
    (out / "labels.json").write_text(json.dumps(labels), "utf-8")
    _write_config(workload, out, splits)

    rows = sorted(n for db_id in target_dbs for n in data[db_id].rows_per_table.values())
    info = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "splits": {name: _stats(rows_) for name, rows_ in splits.items()},
        "pool_size": len(splits.get(workload.selection.get("pool", "train"), [])),
        "databases": len(entries),
        "database_files": len(target_dbs),
        "rows_per_table": {"min": rows[0], "median": rows[len(rows) // 2], "max": rows[-1]},
        "plants": dict(sorted(Counter(labels).items())),
    }
    (out / "info.json").write_text(json.dumps(info, indent=1, sort_keys=True), "utf-8")
    return info


def _plant_answers(workload: Workload, targets: list[dict], out: Path, rng: random.Random):
    """question -> planted answer text, and the label of each target."""
    answers: dict[str, str] = {}
    labels: list[str] = []
    conns: dict[str, sqlite3.Connection] = {}
    try:
        for ex in targets:
            gold, db_id = ex.get("query", ex.get("SQL")), ex["db_id"]
            if db_id not in conns:
                conns[db_id] = sqlite3.connect(
                    f"file:{out / 'database' / db_id / (db_id + '.sqlite')}?mode=ro", uri=True)
            _run(conns[db_id], gold)  # a gold that fails here is a generator defect
            label, answer = "echo", gold
            roll = rng.random()
            for name, share in workload.plants.items():
                if roll < share:
                    planted = _plant(name, gold, conns[db_id], rng)
                    if planted is not None:
                        label, answer = name, planted
                    break
                roll -= share
            answers[ex["question"]] = answer
            labels.append(label)
    finally:
        for conn in conns.values():
            conn.close()
    return answers, labels


def _write_config(workload: Workload, out: Path, splits: dict) -> None:
    def block(name: str, values: dict) -> list[str]:
        return [f"{name}:"] + [f"  {k}: {json.dumps(v)}" for k, v in values.items()]

    lines = [
        "dataset:",
        f"  name: bench-{workload.name}",
        f"  dialect: {workload.dialect}",
        "  tables: tables.json",
        "  splits:",
        *[f"    {split}: {split}.json" for split in splits],
        "  db_dir: database",
        *block("prompt", workload.prompt),
        *block("selection", workload.selection),
        *block("endpoint", {
            "base_url": STUB_URL, "model_name": "stub", "timeout_s": 30,
            "max_retries": 2, "concurrency_limit": 2, "backoff_base_s": 0.05,
            "record_latency": False,
        }),
        *block("metrics", workload.metrics),
        "output_dir: runs",
        # the pipeline's own seed (random-shot plan, random exemplars) stays
        # fixed so that the work per run does not move with the data seed
        f"seed: {PIPELINE_SEED}",
    ]
    (out / "run.template.yaml").write_text("\n".join(lines) + "\n", "utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    info = generate(WORKLOADS[args.workload], args.seed, Path(args.out), args.size)
    print(json.dumps(info, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
