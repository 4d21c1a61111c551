"""The memos on the linking and parsing hot path never change an answer.

``SynonymLexicon`` precomputes its symmetric closure, ``SchemaLinker``
memoizes column features and ``parse_dvq`` caches ASTs by text.  Each is
checked here against an uncached reference kept in this file, and the shared
caches against concurrent use from a thread pool.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional, Sequence

import pytest

from repro import GRED, GREDConfig, RobustnessSuiteBuilder, build_corpus
from repro.dvq import DVQParseError, parse_dvq
from repro.embeddings.tokenization import char_ngrams, content_words, split_identifier
from repro.linking import SchemaLinker
from repro.linking.linker import LinkCandidate
from repro.robustness.synonyms import SynonymLexicon, default_lexicon
from repro.runtime import BatchRunner

# -- uncached references ---------------------------------------------------------


def reference_related_words(lexicon: SynonymLexicon, word: str) -> List[str]:
    """The full-scan symmetric closure ``related_words`` replaced."""
    word = word.lower()
    related = {word}
    related.update(lexicon.word_synonyms.get(word, []))
    for source, targets in lexicon.word_synonyms.items():
        if word in targets:
            related.add(source)
            related.update(targets)
    expansion = lexicon.abbreviations.get(word)
    if expansion:
        related.add(expansion)
    for full, abbreviated in lexicon.abbreviations.items():
        if word == abbreviated:
            related.add(full)
    return sorted(related)


def _jaccard(left: Sequence[str], right: Sequence[str]) -> float:
    left_set, right_set = set(left), set(right)
    if not left_set or not right_set:
        return 0.0
    return len(left_set & right_set) / len(left_set | right_set)


class ReferenceLinker:
    """``SchemaLinker`` scoring that computes both sides on every call.

    Word closures come from :func:`reference_related_words`, kept per word
    only so the sweeps below run in seconds.
    """

    def __init__(self, linker: SchemaLinker):
        self.lexicon = linker.lexicon
        self.use_synonyms = linker.use_synonyms
        self.use_char_similarity = linker.use_char_similarity
        self.min_score = linker.min_score
        self._closures: Dict[str, List[str]] = {}

    def _related(self, word: str) -> List[str]:
        if word not in self._closures:
            self._closures[word] = reference_related_words(self.lexicon, word)
        return self._closures[word]

    def _expand(self, words: Sequence[str]) -> List[str]:
        if not self.use_synonyms:
            return [word.lower() for word in words]
        expanded: List[str] = []
        for word in words:
            expanded.extend(self._related(word))
        return expanded

    @staticmethod
    def column_words(column_name: str) -> List[str]:
        return [word.lower() for word in split_identifier(column_name)] or [column_name.lower()]

    def score_phrase(self, phrase_words: Sequence[str], column_name: str) -> float:
        column_parts = self.column_words(column_name)
        phrase_lower = [word.lower() for word in phrase_words]
        if not phrase_lower:
            return 0.0
        joined = "_".join(phrase_lower)
        if column_name.lower() == joined or column_name.lower() in phrase_lower:
            return 1.0
        word_score = _jaccard(self._expand(phrase_lower), self._expand(column_parts))
        char_score = 0.0
        if self.use_char_similarity:
            char_score = _jaccard(
                char_ngrams(" ".join(phrase_lower)), char_ngrams(" ".join(column_parts))
            )
        return max(word_score, 0.9 * char_score)

    def link_phrase(self, phrase, schema, preferred_table=None, top_k=3) -> List[LinkCandidate]:
        words = content_words(phrase) or [phrase.lower()]
        candidates = []
        for table_name, column in schema.all_columns():
            score = self.score_phrase(words, column.name)
            if preferred_table and table_name.lower() == preferred_table.lower():
                score += 0.05
            if score >= self.min_score:
                candidates.append(LinkCandidate(table=table_name, column=column.name, score=score))
        candidates.sort(key=lambda candidate: -candidate.score)
        return candidates[:top_k]

    def map_foreign_column(
        self, column_name, schema, preferred_tables=()
    ) -> Optional[LinkCandidate]:
        for table_name, column in schema.all_columns():
            if column.name.lower() == column_name.lower():
                return LinkCandidate(table=table_name, column=column.name, score=1.0)
        words = self.column_words(column_name)
        best = None
        preferred = {table.lower() for table in preferred_tables}
        for table_name, column in schema.all_columns():
            score = self.score_phrase(words, column.name)
            if table_name.lower() in preferred:
                score += 0.1
            if score >= self.min_score and (best is None or score > best.score):
                best = LinkCandidate(table=table_name, column=column.name, score=score)
        return best

    def question_links(self, nlq, schema, top_k=6) -> List[LinkCandidate]:
        words = content_words(nlq)
        scored: Dict = {}
        for size in (1, 2, 3):
            for start in range(0, max(0, len(words) - size + 1)):
                window = words[start : start + size]
                for table_name, column in schema.all_columns():
                    score = self.score_phrase(window, column.name)
                    key = (table_name, column.name)
                    if score > scored.get(key, 0.0):
                        scored[key] = score
        candidates = [
            LinkCandidate(table=table, column=column, score=score)
            for (table, column), score in scored.items()
            if score >= self.min_score
        ]
        candidates.sort(key=lambda candidate: -candidate.score)
        return candidates[:top_k]


# -- SynonymLexicon ----------------------------------------------------------------


def _lexicon_words(lexicon: SynonymLexicon) -> List[str]:
    words = set(lexicon.word_synonyms)
    for targets in lexicon.word_synonyms.values():
        words.update(targets)
    words.update(lexicon.abbreviations)
    words.update(lexicon.abbreviations.values())
    return sorted(words)


class TestRelatedWordsClosure:
    def test_every_known_word_matches_the_full_scan(self):
        lexicon = default_lexicon()
        for word in _lexicon_words(lexicon):
            assert lexicon.related_words(word) == reference_related_words(lexicon, word), word

    def test_mixed_case_and_unknown_words(self):
        lexicon = default_lexicon()
        for word in ("SALARY", "Wage", "DePt", "Fname", "ID", "notAWord", "zzz_unknown", ""):
            assert lexicon.related_words(word) == reference_related_words(lexicon, word), word
        assert lexicon.related_words("notAWord") == ["notaword"]

    def test_abbreviations_relate_in_both_directions(self):
        lexicon = default_lexicon()
        for full, abbreviated in lexicon.abbreviations.items():
            assert abbreviated in lexicon.related_words(full)
            assert full in lexicon.related_words(abbreviated)

    def test_custom_lexicon_builds_its_own_closure(self):
        lexicon = SynonymLexicon(
            word_synonyms={"alpha": ["beta", "Gamma"], "delta": ["beta"]},
            abbreviations={"epsilon": "eps", "zeta": ""},
        )
        for word in ("alpha", "beta", "gamma", "Gamma", "delta", "epsilon", "eps", "zeta", ""):
            assert lexicon.related_words(word) == reference_related_words(lexicon, word), word

    def test_returned_list_is_a_copy(self):
        lexicon = default_lexicon()
        lexicon.related_words("salary").append("mutated")
        assert "mutated" not in lexicon.related_words("salary")


# -- SchemaLinker -------------------------------------------------------------------

#: The linker configurations in use: GRED's semantic linker, the char-only
#: linker of rgvisnet/transformer_model and seq2vis' lexical linker.
LINKER_CONFIGS = {
    "semantic": dict(use_synonyms=True, use_char_similarity=True, min_score=0.15),
    "char-only": dict(use_synonyms=False, use_char_similarity=True, min_score=0.4),
    "lexical": dict(use_synonyms=False, use_char_similarity=False, min_score=0.5),
}


@pytest.fixture(scope="module")
def linking_suite():
    """A scale-0.04 corpus' robustness suite: original and renamed schemas."""
    return RobustnessSuiteBuilder().build(build_corpus(scale=0.04, seed=7))


def _windows(words: Sequence[str]) -> List[List[str]]:
    return [
        list(words[start : start + size])
        for size in (1, 2, 3)
        for start in range(0, max(0, len(words) - size + 1))
    ]


@pytest.mark.parametrize("config", sorted(LINKER_CONFIGS))
class TestLinkerMatchesUncachedReference:
    def test_score_phrase_over_every_question_window(self, config, linking_suite):
        linker = SchemaLinker(**LINKER_CONFIGS[config])
        reference = ReferenceLinker(linker)
        windows: Dict[str, Dict[tuple, None]] = {}
        for variant in linking_suite.all_variants().values():
            for example in variant.examples:
                seen = windows.setdefault(example.db_id, {})
                seen.update(dict.fromkeys(map(tuple, _windows(content_words(example.nlq)))))
        for db_id, distinct in windows.items():
            schema = linking_suite.catalog.get(db_id).schema
            for window in distinct:
                for _, column in schema.all_columns():
                    assert linker.score_phrase(window, column.name) == (
                        reference.score_phrase(window, column.name)
                    ), (db_id, window, column.name)

    def test_link_phrase_and_question_links(self, config, linking_suite):
        linker = SchemaLinker(**LINKER_CONFIGS[config])
        reference = ReferenceLinker(linker)
        for example in linking_suite.dual_variant.examples:
            schema = linking_suite.catalog.get(example.db_id).schema
            assert linker.question_links(example.nlq, schema) == reference.question_links(
                example.nlq, schema
            )
            preferred = schema.tables[0].name
            for window in _windows(content_words(example.nlq)):
                phrase = " ".join(window)
                assert linker.link_phrase(phrase, schema, preferred) == reference.link_phrase(
                    phrase, schema, preferred
                )

    def test_map_foreign_column_over_every_catalog_column(self, config, linking_suite):
        linker = SchemaLinker(**LINKER_CONFIGS[config])
        reference = ReferenceLinker(linker)
        catalog = linking_suite.catalog
        schemas = [catalog.get(name).schema for name in catalog.names()]
        foreign = sorted({column.name for schema in schemas for _, column in schema.all_columns()})
        for schema in schemas:
            preferred = [schema.tables[-1].name]
            for name in foreign:
                assert linker.map_foreign_column(name, schema, preferred) == (
                    reference.map_foreign_column(name, schema, preferred)
                ), (schema.name, name)
                assert linker.score_phrase(linker.column_words(name), schema.tables[0].name) == (
                    reference.score_phrase(reference.column_words(name), schema.tables[0].name)
                )


# -- parse cache -----------------------------------------------------------------------


class TestParseCache:
    TEXT = "Visualize BAR SELECT name , COUNT(name) FROM employees WHERE salary > 10 GROUP BY name"

    def test_repeated_text_returns_an_equal_ast(self):
        first = parse_dvq(self.TEXT)
        second = parse_dvq(self.TEXT)
        assert first == second == parse_dvq.__wrapped__(self.TEXT)

    def test_cache_is_bounded(self):
        assert parse_dvq.cache_info().maxsize == 256

    @pytest.mark.parametrize(
        "text",
        ["Visualize BAR SELECT FROM", "SELECT a FROM t", "Visualize BAR SELECT a , b FROM t )"],
    )
    def test_malformed_text_raises_every_time_and_is_never_cached(self, text):
        before = parse_dvq.cache_info()
        for _ in range(3):
            with pytest.raises(DVQParseError):
                parse_dvq(text)
        after = parse_dvq.cache_info()
        assert after.hits == before.hits
        assert after.misses == before.misses + 3
        assert after.currsize == before.currsize


# -- concurrency -------------------------------------------------------------------------


def test_trace_batch_with_cold_shared_caches_matches_serial(small_dataset, robustness_suite):
    """Pool threads fill the linker memos and the parse cache and count completions.

    More workers than cores and a short switch interval make the threads
    interleave inside the memo fills; every trace must still equal the serial
    one.
    """
    examples = list(robustness_suite.dual_variant.examples[:24])
    catalog = robustness_suite.catalog
    config = GREDConfig(top_k=5)
    serial = GRED(config).fit(small_dataset.train, small_dataset.catalog)
    expected = serial.trace_batch(examples, catalog).values()

    concurrent = GRED(config).fit(small_dataset.train, small_dataset.catalog)
    parse_dvq.cache_clear()
    outcome: Dict[str, object] = {}

    def run() -> None:
        runner = BatchRunner(max_workers=8)
        outcome["report"] = concurrent.trace_batch(examples, catalog, runner=runner)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive(), "trace_batch did not finish within 300 s"
    assert outcome["report"].values() == expected
    # the completion log's counts are read-modify-write from every pool thread;
    # two workers may both annotate one database, so annotation is left out
    counts = concurrent.llm.log.by_behaviour()
    assert len(concurrent.llm.log) == sum(counts.values())
    counts.pop("annotation", None)
    expected_counts = serial.llm.log.by_behaviour()
    expected_counts.pop("annotation", None)
    assert counts == expected_counts
