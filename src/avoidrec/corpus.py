"""Catalog and impression-log ingestion.

Reads the two tab-separated files used by news click datasets: a news
catalog (``news.tsv``: id, category, subcategory, title, abstract and
optional JSON entity columns, of which the id, the category, the title
and the entities are read; the subcategory and the abstract are required
but not read) and a behaviors log (``behaviors.tsv``:
impression id, user id, timestamp, space-separated click history,
space-separated ``<news_id>-<label>`` candidates).  A JSONL interchange
format for impression records is accepted by the behaviors parser so
other log formats can be converted externally.

Every reader opens its file as ``utf-8-sig``: a UTF-8 byte order mark,
as some editors and exporters write, is dropped rather than kept as part
of the first news id, the first JSONL record or the first vector token.
A byte that is not UTF-8 fails the whole file with a CorpusError naming
the file and the first line that does not decode.  Its row is not
skipped and counted as a ``ParseIssue``, which would take a decode per
line in the parse loops.
A title is normalised by lowercasing it and deleting ASCII punctuation
from its UTF-8 bytes (``normalize_tokens``), which gives the same tokens
as deleting those characters from the string, at a fraction of the cost.
Title words, categories and entities get dense ids in first-seen order
from one ``Interner`` class; the title vocabulary reserves ``PAD_TOKEN``
at 0 and ``UNK_TOKEN`` at 1.

Parsed catalogs and logs are plain immutable-by-convention containers and
are safe to share across threads once built.  They hold each distinct
value once: news ids and user ids are interned (``sys.intern``), so a
catalog key, every history and candidate id naming that article, and the
statistics keyed by them are one string object; within one behaviors
file each distinct ``(news_id, label)`` candidate pair is one shared
tuple (tuples are immutable, so sharing them is safe); and
``NewsArticle`` and ``ImpressionRecord`` are slotted, with no per-record
``__dict__``.

An article holds no mutable container: its title is an unpadded tuple of
at most ``max_title_len`` token ids (the news encoder pads each batch
itself), and its entity ids a tuple, so every article without entities
shares the one empty tuple.  A record's candidates are a tuple of the
shared pairs.  Its history stays a list, because callers extend it with
``record.history + [...]``, which a tuple would refuse.
"""

from __future__ import annotations

import functools
import json
import math
import re
import string
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
PAD_INDEX = 0  # PAD_TOKEN's id in every title vocabulary

# MIND-style timestamp, e.g. "11/11/2019 9:05:58 AM"; interpreted as UTC.
_TIME_FORMAT = "%m/%d/%Y %I:%M:%S %p"

_ASCII_PUNCT = string.punctuation.encode("ascii")


class CorpusError(Exception):
    """Unrecoverable problem with an input file (duplicate ids, bad vectors)."""


# A byte that is not UTF-8, as the "surrogateescape" error handler decodes it.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _undecodable(path) -> CorpusError:
    """CorpusError naming ``path`` and its first line that is not valid UTF-8.

    The file is read again with every undecodable byte escaped, so its
    lines are counted as the readers count them.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if bad := _ESCAPED_BYTE.search(line):
                return CorpusError(f"{path}: line {line_no}: invalid UTF-8 byte "
                                   f"0x{ord(bad.group()) - 0xDC00:02x}")
    return CorpusError(f"{path}: invalid UTF-8")


def _utf8_or_corpus_error(reader):
    """``reader(path, ...)``, with its strict decoding's failure raised as ``_undecodable``.

    That failure names a position in a read buffer, not a line; the line
    is found only on this failure path, so the reader's loop is as it was.
    """
    @functools.wraps(reader)
    def read(path, *args, **kwargs):
        try:
            return reader(path, *args, **kwargs)
        except UnicodeDecodeError:
            raise _undecodable(path) from None
    return read


@dataclass
class ParseIssue:
    line_no: int
    message: str

    def __str__(self):
        return f"line {self.line_no}: {self.message}"


class Interner:
    """Dense id assignment in first-seen order.

    ``Interner(*reserved)`` holds ``reserved`` at ids 0, 1, ... before any
    other key; a catalog's categories and entities start empty, and its
    title vocabulary starts with ``PAD_TOKEN`` at ``PAD_INDEX`` and
    ``UNK_TOKEN`` at 1.  ``key_to_index`` and ``index_to_key`` stay exact
    inverses.
    """

    def __init__(self, *reserved: str):
        self.key_to_index = {}
        self.index_to_key = []
        for key in reserved:
            self.intern(key)

    def __len__(self):
        return len(self.index_to_key)

    def intern(self, key: str) -> int:
        idx = self.key_to_index.get(key)
        if idx is None:
            idx = len(self.index_to_key)
            self.key_to_index[key] = idx
            self.index_to_key.append(key)
        return idx


@dataclass(slots=True)
class NewsArticle:
    """One catalog article.

    ``title_tokens`` holds the title's token ids, at most ``max_title_len``
    of them and unpadded; ``entity_ids`` is a tuple too, so articles
    without entities all share the empty tuple.
    """

    news_id: str
    category_id: int
    title_tokens: tuple[int, ...]
    entity_ids: tuple[int, ...] = ()
    publish_time: int | None = None


@dataclass(slots=True)
class ImpressionRecord:
    """One impression: the user's click history and the candidates shown.

    ``shown`` is a tuple of ``(news_id, label)`` pairs, which the parsers
    share between records.  ``history`` stays a list, because callers
    build id lists with ``record.history + [...]``.
    """

    impression_id: str
    user_id: str
    time: int
    history: list[str]
    shown: tuple[tuple[str, int], ...]


@dataclass
class NewsCatalog:
    """Articles keyed by id plus the interners built while parsing them."""

    articles: dict[str, NewsArticle]
    categories: Interner
    entities: Interner
    issues: list[ParseIssue] = field(default_factory=list)

    def __len__(self):
        return len(self.articles)

    def __contains__(self, news_id):
        return news_id in self.articles

    def get(self, news_id):
        return self.articles.get(news_id)


@dataclass
class ImpressionLog:
    """Impression records sorted ascending by time."""

    records: list[ImpressionRecord]
    issues: list[ParseIssue] = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def normalize_tokens(text: str) -> list[str]:
    """Lowercase, drop ASCII punctuation characters, split on whitespace.

    The punctuation is deleted from the UTF-8 bytes: every byte of a
    multi-byte sequence is >= 0x80, so an ASCII byte is always its own
    character, and this drops exactly the characters that deleting them
    from the string would.  ``surrogatepass`` carries a lone surrogate
    through unchanged.
    """
    cleaned = text.lower().encode("utf-8", "surrogatepass").translate(None, _ASCII_PUNCT)
    return cleaned.decode("utf-8", "surrogatepass").split()


def _extract_entity_keys(extra_columns):
    # Trailing catalog columns may hold JSON arrays of entity annotations;
    # anything else (URLs etc.) is ignored.
    keys = []
    for col in extra_columns:
        col = col.strip()
        if not col.startswith("["):
            continue
        try:
            parsed = json.loads(col)
        except json.JSONDecodeError:
            continue
        if not isinstance(parsed, list):
            continue
        for item in parsed:
            if isinstance(item, dict) and "WikidataId" in item:
                keys.append(str(item["WikidataId"]))
    return list(dict.fromkeys(keys))  # deduped, in first-seen order


@_utf8_or_corpus_error
def parse_news_file(path, max_title_len: int = 30) -> tuple[NewsCatalog, Interner]:
    """Parse a news catalog TSV and build its title vocabulary.

    Rows need at least five columns: id, category, subcategory, title and
    abstract.  The id, the category, the title and any JSON entity columns
    after the abstract are read.  The subcategory and the abstract are
    required but not read.  Malformed rows are skipped and recorded on
    the returned catalog; a duplicated news id aborts parsing.

    Each title is tokenized once, and every one of its tokens enters the
    vocabulary, also those past the ``max_title_len`` cut, so a token's
    id is its first-seen position after the reserved ``PAD_TOKEN`` and
    ``UNK_TOKEN``.
    """
    vocab = Interner(PAD_TOKEN, UNK_TOKEN)
    known, add = vocab.key_to_index.get, vocab.intern
    catalog = NewsCatalog({}, Interner(), Interner())

    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) < 5:
                catalog.issues.append(ParseIssue(line_no, f"expected >=5 columns, got {len(cols)}"))
                continue
            news_id = sys.intern(cols[0])
            if news_id in catalog.articles:
                raise CorpusError(f"duplicate news id {news_id!r} at line {line_no}")
            catalog.articles[news_id] = NewsArticle(
                news_id=news_id,
                category_id=catalog.categories.intern(cols[1]),
                title_tokens=tuple([idx if (idx := known(tok)) is not None else add(tok)
                                    for tok in normalize_tokens(cols[3])][:max_title_len]),
                entity_ids=tuple(map(catalog.entities.intern, _extract_entity_keys(cols[5:]))),
            )
    return catalog, vocab


# The pattern ``strptime`` compiles for _TIME_FORMAT in the C locale.  Its
# ``\d`` is Unicode, as ``int`` reads it; seconds 60 and 61 match and then
# fail in ``datetime``.
_TIME_RE = re.compile(
    r"(?P<m>1[0-2]|0[1-9]|[1-9])/(?P<d>3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])/(?P<Y>\d\d\d\d)"
    r"\s+(?P<I>1[0-2]|0[1-9]|[1-9]):(?P<M>[0-5]\d|\d):(?P<S>6[0-1]|[0-5]\d|\d)\s+(?P<p>am|pm)",
    re.IGNORECASE)


def parse_time(text: str) -> int:
    """Epoch seconds for a log timestamp (fixed UTC convention).

    Takes the MIND form ``M/D/YYYY h:MM:SS AM|PM``, and accepts and
    rejects exactly what ``datetime.strptime(text.strip(), _TIME_FORMAT)``
    does, in the C locale: whitespace runs between date, clock and
    AM/PM, AM/PM in any case, a four-digit year, hour 1-12, and no
    sign, underscore or extra field.  Bad input raises ``ValueError``;
    ``datetime`` itself rejects impossible dates such as 2/30.
    """
    found = _TIME_RE.fullmatch(text.strip())
    if found is None:
        raise ValueError(f"time data {text!r} does not match format {_TIME_FORMAT!r}")
    month, day, year, hour, minute, second, half = found.groups()
    hour_24 = int(hour) % 12 + (12 if half.lower() == "pm" else 0)
    dt = datetime(int(year), int(month), int(day), hour_24, int(minute), int(second),
                  tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_time(epoch_seconds: int) -> str:
    dt = datetime.fromtimestamp(int(epoch_seconds), tz=timezone.utc)
    hour = dt.hour % 12 or 12
    half = "AM" if dt.hour < 12 else "PM"
    return f"{dt.month:02d}/{dt.day:02d}/{dt.year} {hour}:{dt.minute:02d}:{dt.second:02d} {half}"


_LABELS = {"0": 0, "1": 1}


def _candidate_pair(token: str) -> tuple[str, int]:
    """The (news_id, label) of one ``<news_id>-<label>`` token; a bad token raises."""
    news_id, _, label = token.rpartition("-")
    if not news_id:
        raise ValueError(f"candidate {token!r} is not of the form <news_id>-<label>")
    if label not in _LABELS:
        raise ValueError(f"candidate {token!r} has label {label!r}, expected 0 or 1")
    return sys.intern(news_id), _LABELS[label]


def _parse_candidates(tokens: list[str], pairs: dict) -> tuple[tuple[str, int], ...]:
    """(news_id, label) per ``<news_id>-<label>`` token; the first bad one raises.

    ``pairs`` memoises each valid token's pair, so a token seen before is
    neither split nor checked again; a bad token raises before it is stored.
    """
    shown = []
    for token in tokens:
        pair = pairs.get(token)
        if pair is None:
            pair = pairs[token] = _candidate_pair(token)
        shown.append(pair)
    return tuple(shown)


def _json_str(value, what: str) -> str:
    """``value`` if it is a JSON string; any other JSON value raises."""
    if type(value) is not str:
        raise ValueError(f"{what} {value!r} is not a string")
    return value


_JSON_FIELDS = ("impression_id", "user_id", "time", "history", "shown")


def _record_from_json(obj, pairs: dict) -> ImpressionRecord:
    missing = [name for name in _JSON_FIELDS if name not in obj]
    if missing:
        fields = "field" if len(missing) == 1 else "fields"
        raise ValueError(f"record is missing {fields} {', '.join(map(repr, missing))}")
    # Ids must be JSON strings, not whatever str() takes (null, 12, a list);
    # labels and the time must be JSON integers, not whatever int() takes
    # (0.7, "1"); bool is a subclass of int, hence ``type``.
    shown = []
    for n, lab in obj["shown"]:
        news_id = sys.intern(_json_str(n, "candidate id"))
        if type(lab) is not int or lab not in (0, 1):
            raise ValueError(f"candidate {news_id!r} has label {lab!r}, expected 0 or 1")
        pair = (news_id, lab)
        # Keyed by the pair itself: a tuple never equals a TSV token key.
        shown.append(pairs.setdefault(pair, pair))
    if not shown:
        raise ValueError("record has an empty shown list")
    time = obj["time"]
    if type(time) is not int:
        raise ValueError(f"time {time!r} is not an integer")
    history = obj["history"]
    if type(history) is not list:  # a string would iterate as one-letter ids
        raise ValueError(f"history {history!r} is not a list")
    return ImpressionRecord(
        impression_id=_json_str(obj["impression_id"], "impression_id"),
        user_id=sys.intern(_json_str(obj["user_id"], "user_id")),
        time=time,
        history=[sys.intern(_json_str(h, "history id")) for h in history],
        shown=tuple(shown),
    )


def _record_from_tsv(line: str, pairs: dict) -> ImpressionRecord:
    cols = line.split("\t")
    if len(cols) != 5:
        raise ValueError(f"expected 5 columns, got {len(cols)}")
    impression_id, user_id, time_text, history_text, shown_text = cols
    shown_tokens = shown_text.split()
    if not shown_tokens:
        raise ValueError("record has an empty shown list")
    return ImpressionRecord(
        impression_id=impression_id,
        user_id=sys.intern(user_id),
        time=parse_time(time_text),
        history=list(map(sys.intern, history_text.split())),
        shown=_parse_candidates(shown_tokens, pairs),
    )


@_utf8_or_corpus_error
def parse_behaviors_file(path) -> ImpressionLog:
    """Parse a behaviors log (TSV or JSONL) into time-sorted records.

    Rows with an unparseable timestamp, label, or column layout are
    skipped and recorded as issues rather than aborting the whole file.

    A JSONL record must have all of ``impression_id``, ``user_id``,
    ``time``, ``history`` and ``shown`` (a missing one is an issue naming
    it), its ids must be JSON strings and its ``history`` a JSON array; any
    other value is an issue, not a record.

    User, history and candidate ids are interned, so they are the very
    string objects that key a catalog parsed in the same process.  Each
    distinct candidate pair is built once per call and its immutable
    ``(news_id, label)`` tuple shared by every record that shows it; the
    memo lives only for this call.  Records are slotted dataclasses.
    """
    records = []
    issues = []
    pairs = {}  # candidate token (TSV) or pair (JSONL) -> its one shared tuple
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            try:
                if line.lstrip().startswith("{"):
                    rec = _record_from_json(json.loads(line), pairs)
                else:
                    rec = _record_from_tsv(line, pairs)
            except (ValueError, KeyError, TypeError) as exc:
                issues.append(ParseIssue(line_no, str(exc)))
                continue
            records.append(rec)
    records.sort(key=lambda r: r.time)
    return ImpressionLog(records, issues)


def format_behaviors_line(record: ImpressionRecord) -> str:
    """Render a record back to the TSV row syntax (inverse of the parser)."""
    shown = " ".join(f"{n}-{lab}" for n, lab in record.shown)
    return "\t".join([
        record.impression_id,
        record.user_id,
        format_time(record.time),
        " ".join(record.history),
        shown,
    ])


def record_to_json(record: ImpressionRecord) -> str:
    return json.dumps({
        "impression_id": record.impression_id,
        "user_id": record.user_id,
        "time": record.time,
        "history": record.history,
        "shown": [[n, lab] for n, lab in record.shown],
    }, separators=(",", ":"))


@_utf8_or_corpus_error
def load_word_vectors(path, vocab: Interner, dim: int, seed: int = 0) -> np.ndarray:
    """Build a ``len(vocab) x dim`` embedding matrix from a text vector file.

    Each line is a token followed by ``dim`` floats.  Tokens of ``vocab``
    found in the file get their vectors verbatim; the rest are drawn
    uniformly from ``[-0.1, 0.1]`` (seeded).  The padding row
    (``PAD_INDEX``) is forced to zeros.  A line of the wrong width, or a
    component of a ``vocab`` token that is not a finite number, raises
    CorpusError naming the line; other tokens' components are not read.
    """
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-0.1, 0.1, size=(len(vocab), dim))
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip().split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise CorpusError(
                    f"line {line_no}: expected {dim} vector components, got {len(values)}")
            idx = vocab.key_to_index.get(token)
            if idx is not None:
                try:
                    row = [float(v) for v in values]
                except ValueError as exc:
                    raise CorpusError(f"line {line_no}: {exc}") from None
                if not all(map(math.isfinite, row)):
                    raise CorpusError(f"line {line_no}: vector components must be finite")
                matrix[idx] = row
    matrix[PAD_INDEX] = 0.0
    return matrix


def split_log_by_time(log: ImpressionLog, val_fraction: float,
                      test_fraction: float) -> tuple[ImpressionLog, ImpressionLog, ImpressionLog]:
    """Chronological train/validation/test split of a single log.

    Mirrors day-based dataset splits at small scale: the earliest records
    train, the next ``val_fraction`` validate, the last ``test_fraction``
    test.  Fractions apply to the record count of the time-sorted log.
    """
    if val_fraction < 0 or test_fraction < 0 or val_fraction + test_fraction >= 1:
        raise ValueError("val_fraction and test_fraction must be nonnegative and sum below 1")
    n = len(log.records)
    n_test = int(math.floor(n * test_fraction))
    n_val = int(math.floor(n * val_fraction))
    n_train = n - n_val - n_test
    recs = log.records
    return (
        ImpressionLog(recs[:n_train]),
        ImpressionLog(recs[n_train:n_train + n_val]),
        ImpressionLog(recs[n_train + n_val:]),
    )
