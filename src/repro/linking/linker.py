"""The schema linker used by baselines (lexical mode) and GRED (semantic mode)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set

from repro.database.schema import DatabaseSchema
from repro.embeddings.tokenization import char_ngrams, content_words, split_identifier
from repro.robustness.synonyms import SynonymLexicon, default_lexicon


@dataclass(frozen=True)
class LinkCandidate:
    """A scored (table, column) candidate for a phrase or foreign column name."""

    table: str
    column: str
    score: float


@dataclass(frozen=True)
class _Features:
    """The match sets of a phrase or column name: expanded words and char 3-grams."""

    expanded: FrozenSet[str]
    grams: FrozenSet[str]


def _jaccard(left: FrozenSet[str], right: FrozenSet[str]) -> float:
    if not left or not right:
        return 0.0
    shared = len(left & right)
    return shared / (len(left) + len(right) - shared)


class SchemaLinker:
    """Scores how well a phrase refers to each column of a schema.

    The column side of a score (expanded word set and character 3-grams)
    depends only on the column name, so it is memoized per name on the
    instance; the memo is bounded by the catalog's vocabulary.
    The linking APIs compute the phrase side once per phrase and score it
    against every column.

    Args:
        lexicon: synonym lexicon used in semantic mode.
        use_synonyms: enable synonym-aware matching (semantic mode).
        use_char_similarity: enable character n-gram similarity.
        min_score: candidates scoring below this are discarded.
    """

    def __init__(
        self,
        lexicon: Optional[SynonymLexicon] = None,
        use_synonyms: bool = True,
        use_char_similarity: bool = True,
        min_score: float = 0.2,
    ):
        self.lexicon = lexicon or default_lexicon()
        self.use_synonyms = use_synonyms
        self.use_char_similarity = use_char_similarity
        self.min_score = min_score
        self._columns: Dict[str, _Features] = {}

    # -- scoring -------------------------------------------------------------

    def _expand(self, words: Sequence[str]) -> FrozenSet[str]:
        if not self.use_synonyms:
            return frozenset(word.lower() for word in words)
        expanded: Set[str] = set()
        for word in words:
            expanded.update(self.lexicon.related_words(word))
        return frozenset(expanded)

    def _features(self, words: List[str]) -> _Features:
        """The scoring features of lower-cased ``words``."""
        grams = (
            frozenset(char_ngrams(" ".join(words))) if self.use_char_similarity else frozenset()
        )
        return _Features(expanded=self._expand(words), grams=grams)

    def _column_features(self, column_name: str) -> _Features:
        # threads racing on a miss store equal values, so no lock is needed
        features = self._columns.get(column_name)
        if features is None:
            features = self._features(self.column_words(column_name))
            self._columns[column_name] = features
        return features

    def column_words(self, column_name: str) -> List[str]:
        return [word.lower() for word in split_identifier(column_name)] or [column_name.lower()]

    def _scorer(self, phrase_words: Sequence[str]) -> Callable[[str], float]:
        """Score one phrase against many columns, computing the phrase side once."""
        phrase_lower = [word.lower() for word in phrase_words]
        if not phrase_lower:
            return lambda column_name: 0.0
        joined = "_".join(phrase_lower)
        mentioned = set(phrase_lower)
        phrase = self._features(phrase_lower)

        def score(column_name: str) -> float:
            # exact identifier mention (the nvBench shortcut)
            name = column_name.lower()
            if name == joined or name in mentioned:
                return 1.0
            column = self._column_features(column_name)
            word_score = _jaccard(phrase.expanded, column.expanded)
            char_score = 0.0
            if self.use_char_similarity:
                char_score = _jaccard(phrase.grams, column.grams)
            return max(word_score, 0.9 * char_score)

        return score

    def score_phrase(self, phrase_words: Sequence[str], column_name: str) -> float:
        """Similarity in [0, 1] between a phrase (already tokenised) and a column."""
        return self._scorer(phrase_words)(column_name)

    # -- public linking APIs ---------------------------------------------------

    def link_phrase(
        self,
        phrase: str,
        schema: DatabaseSchema,
        preferred_table: Optional[str] = None,
        top_k: int = 3,
    ) -> List[LinkCandidate]:
        """Rank schema columns by how well they match ``phrase``."""
        score_column = self._scorer(content_words(phrase) or [phrase.lower()])
        candidates: List[LinkCandidate] = []
        for table_name, column in schema.all_columns():
            score = score_column(column.name)
            if preferred_table and table_name.lower() == preferred_table.lower():
                score += 0.05
            if score >= self.min_score:
                candidates.append(LinkCandidate(table=table_name, column=column.name, score=score))
        candidates.sort(key=lambda candidate: -candidate.score)
        return candidates[:top_k]

    def best_column(
        self, phrase: str, schema: DatabaseSchema, preferred_table: Optional[str] = None
    ) -> Optional[LinkCandidate]:
        """The single best column for ``phrase`` (None when nothing clears the threshold)."""
        candidates = self.link_phrase(phrase, schema, preferred_table=preferred_table, top_k=1)
        return candidates[0] if candidates else None

    def map_foreign_column(
        self,
        column_name: str,
        schema: DatabaseSchema,
        preferred_tables: Sequence[str] = (),
    ) -> Optional[LinkCandidate]:
        """Map a column name from *another* schema onto this schema.

        This is the operation behind GRED's annotation-based debugger: the
        generated DVQ mentions ``SALARY`` but the (renamed) schema only has
        ``wage``; semantic linking recovers the correspondence.
        """
        for table_name, column in schema.all_columns():
            if column.name.lower() == column_name.lower():
                return LinkCandidate(table=table_name, column=column.name, score=1.0)
        score_column = self._scorer(self.column_words(column_name))
        best: Optional[LinkCandidate] = None
        preferred = {table.lower() for table in preferred_tables}
        for table_name, column in schema.all_columns():
            score = score_column(column.name)
            if table_name.lower() in preferred:
                score += 0.1
            if score >= self.min_score and (best is None or score > best.score):
                best = LinkCandidate(table=table_name, column=column.name, score=score)
        return best

    def question_links(
        self, nlq: str, schema: DatabaseSchema, top_k: int = 6
    ) -> List[LinkCandidate]:
        """Columns mentioned (explicitly or semantically) anywhere in a question."""
        words = content_words(nlq)
        columns = schema.all_columns()
        scored: dict = {}
        window_sizes = (1, 2, 3)
        for size in window_sizes:
            for start in range(0, max(0, len(words) - size + 1)):
                score_column = self._scorer(words[start : start + size])
                for table_name, column in columns:
                    score = score_column(column.name)
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
