"""seedrank: screening prioritisation driven by known-relevant seed studies.

Given a review topic's candidate set and one or more seed studies, rank the
candidates so the remaining relevant studies surface early. The library
covers the full experimental loop: corpus/topic/qrels loading, bag-of-words
and clinical-lexicon representations under two pre-processing pipelines,
QLM / seed-weighted / BM25 / embedding rankers, leave-one-out and
seed-group experiments with an oracle baseline, trec_eval-compatible
metrics and paired significance tests.
"""

from .corpus import (
    Document,
    EmbeddingTable,
    Lexicon,
    Run,
    RunEntry,
    RunUnit,
    Topic,
    filter_topics,
    load_corpus,
    load_embeddings,
    load_lexicon,
    load_qrels,
    load_run,
    load_topics,
    write_run,
)
from .errors import (
    ConfigError,
    ContractError,
    DegenerateTestError,
    DuplicateIdError,
    EmptyTopicError,
    InsufficientDocumentsError,
    InsufficientSeedsError,
    MissingTopicError,
    ParseError,
    RunValidationError,
    SeedRankError,
    UndefinedMetricError,
)
from .evaluation import (
    average_precision,
    bonferroni,
    last_rel_percent,
    metric_set,
    ndcg_at,
    paired_t_test,
    precision_at,
    ranked_metrics,
    recall_at,
    wss,
)
from .experiments import (
    ExperimentReport,
    SeedGroup,
    evaluate_unit,
    intra_similarity,
    loocv_single,
    make_groups,
    multi_sdr,
    oracle_single,
    term_commonality,
)
from .scoring import (
    ScoringParams,
    aes_score,
    bm25_score,
    interpolate,
    minmax,
    phi_weights,
    rank,
    sdr_score,
)
from .text import LEE, OURS, PipelineConfig, default_stopwords, tokenize
from .vectors import CollectionStats, TopicIndex, aes_vector, build_index, build_stats, cosine, tfidf

__version__ = "0.1.0"
