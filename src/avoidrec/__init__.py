"""Avoidance-aware news recommendation toolkit."""

from .corpus import (ImpressionLog, ImpressionRecord, Interner, NewsArticle, NewsCatalog,
                     load_word_vectors, parse_behaviors_file, parse_news_file,
                     split_log_by_time)
from .grid import EngagementEmbeddingTable, cell_index
from .metrics import RankedImpression, auc, evaluate, mrr, ndcg_at_k
from .model import AvoidanceAwareRanker, ModelConfig, VocabSizes
from .stats import (BucketTimeline, StatsSnapshot, build_timeline, engagement_ratios,
                    snapshot_at)
from .synthetic import SyntheticSpec, generate
from .training import (Corpus, TrainConfig, instance_loss, load_corpus,
                       sample_negatives, train)

__version__ = "0.1.0"

__all__ = [
    "AvoidanceAwareRanker", "BucketTimeline", "Corpus", "EngagementEmbeddingTable",
    "ImpressionLog", "ImpressionRecord", "Interner", "ModelConfig", "NewsArticle",
    "NewsCatalog", "RankedImpression", "StatsSnapshot", "SyntheticSpec", "TrainConfig",
    "VocabSizes", "auc", "build_timeline", "cell_index", "engagement_ratios", "evaluate",
    "generate", "instance_loss", "load_corpus", "load_word_vectors", "mrr", "ndcg_at_k",
    "parse_behaviors_file", "parse_news_file", "sample_negatives", "snapshot_at",
    "split_log_by_time", "train",
]
