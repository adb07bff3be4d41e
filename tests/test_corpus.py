import json
import string
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avoidrec.corpus import (_TIME_FORMAT, PAD_INDEX, PAD_TOKEN, UNK_TOKEN, CorpusError,
                             ImpressionRecord, Interner, format_behaviors_line, format_time,
                             load_word_vectors, normalize_tokens,
                             parse_behaviors_file, parse_news_file,
                             parse_time, record_to_json, split_log_by_time)
from avoidrec.synthetic import SyntheticSpec, generate, write_mind_files

NEWS_ROWS = [
    "N1\tsports\tsoccer\tTeam wins final\tSome abstract",
    "N2\tnews\tworld\tHello, WORLD\tAnother abstract",
    "N3\tsports\ttennis\t\tEmpty title",
]

BEHAVIOR_ROWS = [
    "1\tU10\t11/11/2019 9:05:58 AM\tN1 N2\tN3-1 N4-0",
    "2\tU11\t11/11/2019 8:05:58 AM\t\tN1-0 N2-1",
]


def write(tmp_path, name, lines, encoding="utf-8"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding=encoding)
    return path


class TestParseNewsFile:
    def test_basic_row_tokenized_and_padded(self, tmp_path):
        catalog, vocab = parse_news_file(write(tmp_path, "news.tsv", NEWS_ROWS),
                                         max_title_len=5)
        art = catalog.get("N1")
        assert [vocab.index_to_key[t] for t in art.title_tokens] == ["team", "wins", "final"]
        assert catalog.categories.index_to_key[art.category_id] == "sports"

    def test_empty_title_is_all_padding(self, tmp_path):
        catalog, vocab = parse_news_file(write(tmp_path, "news.tsv", NEWS_ROWS),
                                         max_title_len=4)
        assert catalog.get("N3").title_tokens == ()

    def test_duplicate_news_id_is_hard_error(self, tmp_path):
        rows = NEWS_ROWS + ["N1\tnews\tus\tDup title\tabs"]
        with pytest.raises(CorpusError, match="N1"):
            parse_news_file(write(tmp_path, "news.tsv", rows), max_title_len=4)

    def test_utf8_bom_is_not_part_of_the_first_id(self, tmp_path):
        # "utf-8-sig" writes a byte order mark before N1.
        catalog, _ = parse_news_file(write(tmp_path, "news.tsv", NEWS_ROWS, "utf-8-sig"),
                                     max_title_len=4)
        assert list(catalog.articles) == ["N1", "N2", "N3"]
        log = parse_behaviors_file(write(tmp_path, "b.tsv", BEHAVIOR_ROWS))
        assert all(news_id in catalog for r in log for news_id in r.history)

    def test_malformed_row_skipped_and_counted(self, tmp_path):
        # The subcategory and abstract columns are not read, but required.
        rows = [NEWS_ROWS[0], "N9\tonly\tthree", NEWS_ROWS[1], "N8\tnews\tworld\tNo abstract"]
        catalog, _ = parse_news_file(write(tmp_path, "news.tsv", rows), max_title_len=4)
        assert len(catalog) == 2
        assert [(issue.line_no, issue.message) for issue in catalog.issues] == [
            (2, "expected >=5 columns, got 3"), (4, "expected >=5 columns, got 4")]

    def test_entity_columns_parsed_from_json(self, tmp_path):
        ents = json.dumps([{"Label": "X", "WikidataId": "Q1"},
                           {"Label": "Y", "WikidataId": "Q2"}])
        rows = [f"N1\tsports\tsoccer\tTeam wins\tabs\thttp://u\t{ents}\t[]"]
        catalog, _ = parse_news_file(write(tmp_path, "news.tsv", rows), max_title_len=4)
        art = catalog.get("N1")
        assert [catalog.entities.index_to_key[e] for e in art.entity_ids] == ["Q1", "Q2"]


class TestSinglePassTokenizer:
    """``parse_news_file`` tokenizes each title once while growing the vocabulary."""

    ROWS = [
        "N1\tsports\tsoccer\tOne two three four five six seven\tabs",
        "N2\tnews\tworld\tSeven eight, two NINE ten eleven\tabs",
        "N3\tnews\tworld\t\tempty title",
        "N4\tnews\tworld\tzeta\tabs",
    ]

    @staticmethod
    def two_pass(rows, max_title_len):
        """Grow the vocabulary over every title, then look each title's cut up in it."""
        titles = {row.split("\t")[0]: normalize_tokens(row.split("\t")[3]) for row in rows}
        vocab = Interner(PAD_TOKEN, UNK_TOKEN)
        for tokens in titles.values():
            for tok in tokens:
                vocab.intern(tok)
        return vocab, {news_id: tuple(vocab.key_to_index[tok] for tok in tokens[:max_title_len])
                       for news_id, tokens in titles.items()}

    def test_tokens_past_the_cut_enter_the_vocabulary_in_order(self, tmp_path):
        catalog, vocab = parse_news_file(write(tmp_path, "news.tsv", self.ROWS), max_title_len=3)
        assert vocab.index_to_key[2:] == ["one", "two", "three", "four", "five", "six",
                                          "seven", "eight", "nine", "ten", "eleven", "zeta"]
        assert catalog.get("N1").title_tokens == (2, 3, 4)
        assert catalog.get("N2").title_tokens == (8, 9, 3)
        assert catalog.get("N4").title_tokens == (13,)

    @pytest.mark.parametrize("max_title_len", [1, 3, 7, 10])
    def test_matches_the_two_pass_result(self, tmp_path, max_title_len):
        catalog, vocab = parse_news_file(write(tmp_path, "news.tsv", self.ROWS),
                                         max_title_len=max_title_len)
        ref_vocab, ref_titles = self.two_pass(self.ROWS, max_title_len)
        assert len(vocab) == len(ref_vocab)
        assert vocab.index_to_key == ref_vocab.index_to_key
        assert vocab.key_to_index == ref_vocab.key_to_index
        assert {n: a.title_tokens for n, a in catalog.articles.items()} == ref_titles

    # Reserved keys among the stream, so interning one of them again is tried too.
    @given(st.lists(st.text(max_size=3) | st.sampled_from([PAD_TOKEN, UNK_TOKEN]), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_interned_ids_are_dense_and_in_first_seen_order(self, stream):
        vocab = Interner(PAD_TOKEN, UNK_TOKEN)
        ids = [vocab.intern(tok) for tok in stream]
        first_seen = list(dict.fromkeys([PAD_TOKEN, UNK_TOKEN, *stream]))
        assert vocab.index_to_key == first_seen and len(vocab) == len(first_seen)
        assert ids == [first_seen.index(tok) for tok in stream]
        assert vocab.key_to_index == {key: idx for idx, key in enumerate(vocab.index_to_key)}
        assert [vocab.index_to_key[vocab.key_to_index[key]] for key in first_seen] == first_seen
        assert vocab.key_to_index[PAD_TOKEN] == PAD_INDEX == 0
        assert vocab.key_to_index[UNK_TOKEN] == 1


class TestTokenize:
    def test_punctuation_and_case(self, tmp_path):
        catalog, vocab = parse_news_file(write(tmp_path, "news.tsv", NEWS_ROWS), max_title_len=4)
        assert [vocab.index_to_key[t] for t in catalog.get("N2").title_tokens] == [
            "hello", "world"]

    def test_truncation(self, tmp_path):
        rows = ["N1\tnews\tworld\ta b c d\tabs"]
        catalog, vocab = parse_news_file(write(tmp_path, "news.tsv", rows), max_title_len=2)
        assert catalog.get("N1").title_tokens == (vocab.key_to_index["a"], vocab.key_to_index["b"])

    @given(st.text(max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_normalization_idempotent(self, text):
        once = normalize_tokens(text)
        assert normalize_tokens(" ".join(once)) == once

    # Any code point, lone surrogates and Unicode whitespace included.
    @given(st.text(st.characters(codec=None, exclude_categories=()), max_size=60)
           | st.text(string.printable + "\u00e9\u00c9\u00a0\u0085\u3000\u2014\ud800", max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_normalization_equals_deleting_punctuation_from_the_string(self, text):
        table = str.maketrans("", "", string.punctuation)
        assert normalize_tokens(text) == text.lower().translate(table).split()


class TestParseBehaviors:
    def test_format_example(self, tmp_path):
        log = parse_behaviors_file(write(tmp_path, "b.tsv", BEHAVIOR_ROWS[:1]))
        rec = log.records[0]
        assert rec.impression_id == "1"
        assert rec.user_id == "U10"
        assert rec.history == ["N1", "N2"]
        assert rec.shown == (("N3", 1), ("N4", 0))
        assert rec.time == parse_time("11/11/2019 9:05:58 AM")

    def test_invalid_label_skips_row(self, tmp_path):
        rows = BEHAVIOR_ROWS + ["3\tU1\t11/11/2019 1:00:00 PM\tN1\tN5-2"]
        log = parse_behaviors_file(write(tmp_path, "b.tsv", rows))
        assert len(log) == 2
        assert len(log.issues) == 1
        assert "N5-2" in log.issues[0].message

    def test_candidate_tokens_accepted_and_refused(self, tmp_path):
        # The id is everything before the last '-', the label one of 0 or 1;
        # a row's first bad token names it.
        row = "1\tU1\t11/11/2019 1:00:00 PM\tN1\tN1-0 N-1-1 {}"
        refused = {"N1": "is not of the form", "-1": "is not of the form",
                   "N1-2": "has label '2'", "N1-": "has label ''"}
        rows = [row.format("N2-0")] + [row.format(f"{bad} N3-5") for bad in refused]
        log = parse_behaviors_file(write(tmp_path, "b.tsv", rows))
        assert [r.shown for r in log] == [(("N1", 0), ("N-1", 1), ("N2", 0))]
        assert len(log.issues) == len(refused)
        for problem, (bad, reason) in zip(log.issues, refused.items()):
            assert problem.message.startswith(f"candidate {bad!r} {reason}"), problem.message

    def test_unparseable_time_skips_row(self, tmp_path):
        rows = ["1\tU1\tnot a time\tN1\tN2-0"] + BEHAVIOR_ROWS[:1]
        log = parse_behaviors_file(write(tmp_path, "b.tsv", rows))
        assert len(log) == 1
        assert log.issues[0].line_no == 1

    def test_empty_history_means_cold_user(self, tmp_path):
        log = parse_behaviors_file(write(tmp_path, "b.tsv", BEHAVIOR_ROWS))
        by_id = {r.impression_id: r for r in log}
        assert by_id["2"].history == []

    def test_records_sorted_by_time(self, tmp_path):
        log = parse_behaviors_file(write(tmp_path, "b.tsv", BEHAVIOR_ROWS))
        times = [r.time for r in log]
        assert times == sorted(times)
        assert [r.impression_id for r in log] == ["2", "1"]

    def test_tsv_round_trip(self, tmp_path):
        log = parse_behaviors_file(write(tmp_path, "b.tsv", BEHAVIOR_ROWS))
        lines = [format_behaviors_line(r) for r in log]
        reparsed = parse_behaviors_file(write(tmp_path, "b2.tsv", lines))
        assert reparsed.records == log.records

    def test_jsonl_accepted(self, tmp_path):
        log = parse_behaviors_file(write(tmp_path, "b.tsv", BEHAVIOR_ROWS))
        lines = [record_to_json(r) for r in log]
        reparsed = parse_behaviors_file(write(tmp_path, "b.jsonl", lines))
        assert reparsed.records == log.records

    @given(st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_time_format_round_trip(self, times):
        for t in times:
            assert parse_time(format_time(t)) == t


class TestJsonRecords:
    def test_utf8_bom_before_the_first_record(self, tmp_path):
        lines = [record_to_json(r) for r in parse_behaviors_file(
            write(tmp_path, "b.tsv", BEHAVIOR_ROWS))]
        log = parse_behaviors_file(write(tmp_path, "b.jsonl", lines, "utf-8-sig"))
        assert not log.issues
        assert [r.impression_id for r in log] == ["2", "1"]

    """JSONL ids are JSON strings, labels and times JSON integers; anything else is an issue."""

    GOOD = {"impression_id": "9", "user_id": "U1", "time": 1000,
            "history": ["N1"], "shown": [["N2", 1], ["N3", 0]]}

    def parse(self, tmp_path, bad):
        lines = [json.dumps(self.GOOD), json.dumps(dict(self.GOOD, **bad))]
        return parse_behaviors_file(write(tmp_path, "b.jsonl", lines))

    def test_integer_fields_accepted(self, tmp_path):
        log = self.parse(tmp_path, {"impression_id": "10", "time": 999})
        assert [(r.impression_id, r.time, r.shown) for r in log] == [
            ("10", 999, (("N2", 1), ("N3", 0))), ("9", 1000, (("N2", 1), ("N3", 0)))]
        assert log.issues == []

    @pytest.mark.parametrize("label", [0.7, 1.9, 1.0, "1", True, False, 2, None])
    def test_label_must_be_the_integer_0_or_1(self, tmp_path, label):
        log = self.parse(tmp_path, {"shown": [["N3", 0], ["N2", label]]})
        assert [r.impression_id for r in log] == ["9"]
        assert [issue.line_no for issue in log.issues] == [2]
        assert log.issues[0].message == f"candidate 'N2' has label {label!r}, expected 0 or 1"

    @pytest.mark.parametrize("time", [1000.5, 1000.0, True, "1000", None])
    def test_time_must_be_an_integer(self, tmp_path, time):
        log = self.parse(tmp_path, {"time": time})
        assert [r.impression_id for r in log] == ["9"]
        assert [issue.line_no for issue in log.issues] == [2]
        assert log.issues[0].message == f"time {time!r} is not an integer"

    def test_null_int_and_list_ids_give_an_issue_and_no_record(self, tmp_path):
        log = self.parse(tmp_path, {"user_id": None, "history": [None, 12, ["N1"]],
                                    "shown": [[None, 1], [3, 0]]})
        assert [r.impression_id for r in log] == ["9"]
        assert [issue.line_no for issue in log.issues] == [2]

    @pytest.mark.parametrize("bad, message", [
        ({"impression_id": 10}, "impression_id 10 is not a string"),
        ({"user_id": None}, "user_id None is not a string"),
        ({"history": ["N1", 12]}, "history id 12 is not a string"),
        ({"history": [["N1"]]}, "history id ['N1'] is not a string"),
        ({"history": "N1 N2"}, "history 'N1 N2' is not a list"),
        ({"shown": [["N2", 1], [3, 0]]}, "candidate id 3 is not a string"),
        ({"shown": [[None, 1]]}, "candidate id None is not a string"),
    ])
    def test_ids_must_be_strings_in_lists(self, tmp_path, bad, message):
        log = self.parse(tmp_path, bad)
        assert [r.impression_id for r in log] == ["9"]
        assert [(issue.line_no, issue.message) for issue in log.issues] == [(2, message)]


    @pytest.mark.parametrize("name", ["impression_id", "user_id", "time", "history", "shown"])
    def test_missing_field_is_named(self, tmp_path, name):
        bad = {key: value for key, value in self.GOOD.items() if key != name}
        lines = [json.dumps(self.GOOD), json.dumps(bad)]
        log = parse_behaviors_file(write(tmp_path, "b.jsonl", lines))
        assert [r.impression_id for r in log] == ["9"]
        assert [str(issue) for issue in log.issues] == [
            f"line 2: record is missing field {name!r}"]

    def test_every_missing_field_is_named(self, tmp_path):
        log = parse_behaviors_file(write(tmp_path, "b.jsonl", ['{"time": 5}']))
        assert [str(issue) for issue in log.issues] == [
            "line 1: record is missing fields 'impression_id', 'user_id', 'history', 'shown'"]


def synthetic_files(tmp_path, **spec):
    """news.tsv and behaviors.tsv of a small seeded synthetic corpus."""
    return write_mind_files(generate(SyntheticSpec(**spec)), tmp_path)


class TestSharedValues:
    """Parsed ids are the catalog's key objects; candidate pairs are shared; records are slotted."""

    def test_tsv_and_jsonl_give_equal_records_on_the_catalog_ids(self, tmp_path):
        news_path, behaviors_path = synthetic_files(tmp_path, seed=2)
        catalog, _ = parse_news_file(news_path)
        tsv = parse_behaviors_file(behaviors_path)
        jsonl = parse_behaviors_file(write(tmp_path, "b.jsonl", [record_to_json(r) for r in tsv]))
        assert len(tsv) > 0 and tsv.issues == [] and jsonl.issues == []
        assert jsonl.records == tsv.records
        keys = {news_id: news_id for news_id in catalog.articles}
        for log in (tsv, jsonl):
            for record in log:
                for news_id in record.history + [n for n, _ in record.shown]:
                    assert keys[news_id] is news_id
        assert all(article.news_id is key for key, article in catalog.articles.items())

    def test_repeated_candidate_token_is_one_tuple(self, tmp_path):
        tsv = parse_behaviors_file(write(tmp_path, "b.tsv", BEHAVIOR_ROWS + BEHAVIOR_ROWS))
        jsonl = parse_behaviors_file(write(tmp_path, "b.jsonl", [record_to_json(r) for r in tsv]))
        for log in (tsv, jsonl):
            first, again = [r.shown for r in log if r.impression_id == "1"]
            assert first == again and all(a is b for a, b in zip(first, again))

    def test_records_have_no_instance_dict(self, tmp_path):
        catalog, _ = parse_news_file(write(tmp_path, "news.tsv", NEWS_ROWS), max_title_len=4)
        log = parse_behaviors_file(write(tmp_path, "b.tsv", BEHAVIOR_ROWS))
        for obj in [catalog.get("N1"), log.records[0]]:
            assert not hasattr(obj, "__dict__")
            with pytest.raises(AttributeError):
                obj.extra = 1

    def test_parsed_log_bytes_per_id_token(self, tmp_path):
        # Each history id and candidate slot is one pointer into shared
        # strings and tuples; per-record containers add the rest.  A fresh
        # string per id and a tuple per slot read about 122 B/token here.
        news_path, behaviors_path = synthetic_files(tmp_path, n_users=60, n_articles=120, seed=3)
        catalog, _ = parse_news_file(news_path)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = parse_behaviors_file(behaviors_path)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        tokens = sum(len(r.history) + len(r.shown) for r in log)
        assert len(log) == 480 and len(catalog) == 120
        assert used / tokens < 60, f"{used / tokens:.1f} bytes per id token"

    def test_parsed_catalog_bytes_per_article(self, tmp_path):
        # Seven-token titles, each with one word of its own, as in a large
        # catalog.  Unpadded title tuples and the shared empty entity tuple
        # read about 376 B/article here, vocabulary included; titles padded
        # to 30 as lists read about 646, and a list per article for its
        # entities would add 56.
        words = ["market", "season", "report", "update", "record", "study", "launch",
                 "review", "guide", "deal", "rally", "crisis", "debate", "award"]
        rows = []
        for i in range(2000):
            category = ["sports", "finance", "tech", "health", "travel", "food"][i % 6]
            title = " ".join([category] + [words[(7 * i + 3 * k) % len(words)]
                                           for k in range(5)] + [f"t{i:05d}"])
            rows.append(f"N{i:06d}\t{category}\t{category}-{i % 7}\t{title}\tabout {title}")
        news_path = write(tmp_path, "news.tsv", rows)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            catalog, vocab = parse_news_file(news_path, max_title_len=30)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(catalog) == 2000 and len(vocab) == 2018
        assert used / len(catalog) < 410, f"{used / len(catalog):.1f} bytes per article"


class TestCandidateMemo:
    """A memoised token changes no accepted record and no issue."""

    ROWS = ["1\tU1\t11/11/2019 1:00:00 PM\tN1\tN1-1 N2-0",
            "2\tU1\t11/11/2019 2:00:00 PM\tN1\tN1-0 N1-2",
            "3\tU2\t11/11/2019 3:00:00 PM\t\tN1-",
            "4\tU2\t11/11/2019 4:00:00 PM\tN2\tN1-1 N1-2 N2-1",
            "5\tU3\t11/11/2019 5:00:00 PM\tN1\tN1- N1-1",
            "6\tU3\t11/11/2019 6:00:00 PM\tN1\tN2-0 N1-1"]

    def test_bad_tokens_after_good_ones_still_raise_every_time(self, tmp_path):
        log = parse_behaviors_file(write(tmp_path, "b.tsv", self.ROWS))
        assert [(issue.line_no, issue.message) for issue in log.issues] == [
            (2, "candidate 'N1-2' has label '2', expected 0 or 1"),
            (3, "candidate 'N1-' has label '', expected 0 or 1"),
            (4, "candidate 'N1-2' has label '2', expected 0 or 1"),
            (5, "candidate 'N1-' has label '', expected 0 or 1"),
        ]
        assert [r.shown for r in log] == [(("N1", 1), ("N2", 0)), (("N2", 0), ("N1", 1))]


def strptime_time(text):
    """The former ``parse_time``: the oracle the hand-written parser must match."""
    dt = datetime.strptime(text.strip(), _TIME_FORMAT)
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


def outcome(parser, text):
    try:
        return parser(text)
    except ValueError:
        return ValueError


END_2100 = int(datetime(2100, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())
MUTATION_CHARS = "0123456789 /:+_-.aAmMpPx\t\u3000\u0663\uff12"


class TestParseTimeAgainstStrptime:
    @given(st.integers(0, END_2100))
    @settings(max_examples=300, deadline=None)
    def test_format_time_round_trips(self, t):
        text = format_time(t)
        assert parse_time(text) == t == strptime_time(text)

    @given(st.datetimes(datetime(1970, 1, 1), datetime(2100, 12, 31)),
           st.booleans(), st.booleans(), st.booleans(),
           st.sampled_from(["AM", "am", "Am", "aM"]), st.sampled_from(["PM", "pm", "pM"]),
           st.sampled_from([" ", "  ", "\t", " \t "]), st.sampled_from(["", " ", "\t\n"]))
    @settings(max_examples=300, deadline=None)
    def test_padding_case_and_spacing_variants(self, dt, pad_month, pad_day, pad_hour,
                                               am, pm, sep, edge):
        hour = dt.hour % 12 or 12
        text = (f"{edge}{dt.month:0{1 + pad_month}d}/{dt.day:0{1 + pad_day}d}/{dt.year}"
                f"{sep}{hour:0{1 + pad_hour}d}:{dt.minute:02d}:{dt.second:02d}"
                f"{sep}{am if dt.hour < 12 else pm}{edge}")
        expected = int(dt.replace(microsecond=0, tzinfo=timezone.utc).timestamp())
        assert parse_time(text) == strptime_time(text) == expected

    @given(st.integers(0, END_2100), st.lists(
        st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 40),
                  st.sampled_from(MUTATION_CHARS)), min_size=1, max_size=3))
    @settings(max_examples=500, deadline=None)
    def test_edited_timestamps_agree_with_strptime(self, t, edits):
        text = format_time(t)
        for kind, pos, char in edits:
            pos %= len(text) + 1
            if kind == "insert":
                text = text[:pos] + char + text[pos:]
            elif text:
                text = text[:pos] + (char if kind == "replace" else "") + text[pos + 1:]
        assert outcome(parse_time, text) == outcome(strptime_time, text)

    @pytest.mark.parametrize("text", [
        "11/11/2019 0:05:58 AM",       # hour 0
        "11/11/2019 13:05:58 PM",      # hour 13
        "11/11/2019 9:60:58 AM",       # minute 60
        "11/11/2019 9:05:60 AM",       # second 60: strptime's pattern takes it, datetime not
        "02/30/2019 9:05:58 AM",       # no such date
        "2/29/2019 9:05:58 AM",
        "11/11/19 9:05:58 AM",         # two-digit year
        "11/11/02019 9:05:58 AM",
        "11/11/2019 +9:05:58 AM",      # int() would take these
        "11/11/2019 1_0:05:58 AM",
        "11/11/2019 -9:05:58 AM",
        "11/11/2019 9:05:58",          # missing AM/PM
        "11/11/2019 9:05:58 XM",
        "11/11/2019 9:05:58 AM extra",  # extra fields
        "11/11/2019 9:05:58:00 AM",
        "11/11/2019/1 9:05:58 AM",
        "11/11/20199:05:58 AM",
        "11/  1/2019 9:05:58 AM",      # one space pads a day, two do not
        "\u0661\u0661/11/2019 9:05:58 AM",  # the month takes ASCII digits only
        "11/11/2019 \u0669:05:58 AM",     # and so does the hour
        "11/\u0663/2019 9:05:58 AM",      # and a one-digit day
        "",
        "not a time",
    ])
    def test_rejected_by_both(self, text):
        with pytest.raises(ValueError):
            strptime_time(text)
        with pytest.raises(ValueError):
            parse_time(text)

    @pytest.mark.parametrize("text", [
        "11/ 1/2019 9:05:58 AM",           # space-padded day
        "11/1\u0663/2019 9:05:58 AM",      # strptime reads \d as any decimal digit
        "11/11/\uff12\uff10\uff11\uff19 9:05:58 AM",
        "11/11/2019 9:0\u0665:5\u0668 PM",
        "11/11/2019 9:\u0665:\u0668 PM",
        "11/11/2019\t\u30009:05:58\u3000am",
        "12/31/2100 12:00:00 AM",
        "1/1/1970 12:00:00 pm",
    ])
    def test_accepted_by_both(self, text):
        assert parse_time(text) == strptime_time(text)

    def test_bad_timestamp_row_is_a_counted_issue(self, tmp_path):
        rows = [BEHAVIOR_ROWS[0], "7\tU3\t11/11/2019 13:05:58 PM\tN1\tN2-0", BEHAVIOR_ROWS[1]]
        log = parse_behaviors_file(write(tmp_path, "b.tsv", rows))
        assert [r.impression_id for r in log] == ["2", "1"]
        assert [issue.line_no for issue in log.issues] == [2]
        assert "13:05:58 PM" in log.issues[0].message


class TestWordVectors:
    def test_present_tokens_copied_verbatim(self, tmp_path):
        vocab = Interner(PAD_TOKEN, UNK_TOKEN)
        vocab.intern("cat")
        path = write(tmp_path, "vec.txt", ["cat 0.1 0.2"])
        matrix = load_word_vectors(path, vocab, dim=2)
        assert np.allclose(matrix[vocab.key_to_index["cat"]], [0.1, 0.2])

    def test_utf8_bom_before_the_first_token(self, tmp_path):
        vocab = Interner(PAD_TOKEN, UNK_TOKEN)
        vocab.intern("cat")
        path = write(tmp_path, "vec.txt", ["cat 0.1 0.2"], "utf-8-sig")
        matrix = load_word_vectors(path, vocab, dim=2)
        assert np.allclose(matrix[vocab.key_to_index["cat"]], [0.1, 0.2])

    def test_pad_row_forced_to_zero(self, tmp_path):
        vocab = Interner(PAD_TOKEN, UNK_TOKEN)
        vocab.intern("cat")
        path = write(tmp_path, "vec.txt", ["<PAD> 9.0 9.0", "cat 0.1 0.2"])
        matrix = load_word_vectors(path, vocab, dim=2)
        assert np.array_equal(matrix[PAD_INDEX], [0.0, 0.0])

    def test_width_mismatch_is_hard_error_with_line(self, tmp_path):
        vocab = Interner(PAD_TOKEN, UNK_TOKEN)
        path = write(tmp_path, "vec.txt", ["cat 0.1 0.2", "dog 0.3"])
        with pytest.raises(CorpusError, match="line 2"):
            load_word_vectors(path, vocab, dim=2)

    @pytest.mark.parametrize("bad", ["nan", "inf", "x"])
    def test_bad_component_is_hard_error_with_line(self, tmp_path, bad):
        vocab = Interner(PAD_TOKEN, UNK_TOKEN)
        vocab.intern("b")
        path = write(tmp_path, "vec.txt", ["a 0.1 0.2", f"b {bad} 3", "c 0.3 0.4"])
        with pytest.raises(CorpusError, match="line 2: ") as err:
            load_word_vectors(path, vocab, dim=2)
        assert ("finite" if bad != "x" else "'x'") in str(err.value)

    def test_oov_rows_sampled_within_range(self, tmp_path):
        # Oracle: direct uniform sampling stays within +-0.1 and is
        # essentially never exactly zero; check the loader over many seeds.
        vocab = Interner(PAD_TOKEN, UNK_TOKEN)
        vocab.intern("known")
        vocab.intern("missing")
        path = write(tmp_path, "vec.txt", ["known 1.0 2.0"])
        row = vocab.key_to_index["missing"]
        for seed in range(1000):
            matrix = load_word_vectors(path, vocab, dim=2, seed=seed)
            oov = matrix[row]
            assert (np.abs(oov) <= 0.1).all()
            assert (oov != 0.0).all()


def with_bad_byte(tmp_path, name, lines, bad_line, newline="\n"):
    """``lines`` as a UTF-8 file, with byte 0xf8 (never valid UTF-8) in line ``bad_line``."""
    data = bytearray()
    for i, line in enumerate(lines, start=1):
        encoded = line.encode("utf-8")
        data += encoded.replace(b"X", b"X\xf8", 1) if i == bad_line else encoded
        data += newline.encode()
    path = tmp_path / name
    path.write_bytes(bytes(data))
    return path


class TestInvalidUtf8:
    """A byte that is not UTF-8 fails the file with a CorpusError naming the file and line."""

    ROWS = 60  # several times 40, so line 40 does not sit at the start of a read buffer

    def readers(self, tmp_path, newline):
        vocab = Interner(PAD_TOKEN, UNK_TOKEN)
        vocab.intern("wX")
        news = [f"N{i}\tcat\tsub\ttitle X {i}\tabstract X" for i in range(self.ROWS)]
        tsv = [f"{i}\tUX\t11/11/2019 9:05:58 AM\tN1\tN2-1 N3-0" for i in range(self.ROWS)]
        jsonl = [json.dumps({"impression_id": str(i), "user_id": "UX", "time": 1000,
                             "history": ["N1"], "shown": [["N2", 1]]}) for i in range(self.ROWS)]
        vectors = [f"wX{i} 0.1 0.2" for i in range(self.ROWS)]
        return {
            "news": (parse_news_file, with_bad_byte(tmp_path, "news.tsv", news, 40, newline)),
            "behaviors tsv": (parse_behaviors_file,
                              with_bad_byte(tmp_path, "b.tsv", tsv, 40, newline)),
            "behaviors jsonl": (parse_behaviors_file,
                                with_bad_byte(tmp_path, "b.jsonl", jsonl, 40, newline)),
            "word vectors": (lambda path: load_word_vectors(path, vocab, dim=2),
                             with_bad_byte(tmp_path, "vec.txt", vectors, 40, newline)),
        }

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_the_message_names_the_file_and_the_line(self, tmp_path, newline):
        for name, (reader, path) in self.readers(tmp_path, newline).items():
            with pytest.raises(CorpusError) as err:
                reader(path)
            assert str(err.value) == f"{path}: line 40: invalid UTF-8 byte 0xf8", name

    def test_the_first_bad_line_is_named(self, tmp_path):
        lines = [f"{i}\tUX\t11/11/2019 9:05:58 AM\tN1\tN2-1" for i in range(self.ROWS)]
        data = with_bad_byte(tmp_path, "b.tsv", lines, 40).read_bytes().split(b"\n")
        data[9] = data[9].replace(b"X", b"X\xfe")  # line 10
        path = tmp_path / "b.tsv"
        path.write_bytes(b"\n".join(data))
        with pytest.raises(CorpusError, match=r"b\.tsv: line 10: invalid UTF-8 byte 0xfe$"):
            parse_behaviors_file(path)

    def test_a_bom_is_still_dropped_and_a_valid_file_parses(self, tmp_path):
        rows = [f"{i}\tU1\t11/11/2019 9:05:58 AM\tN1\tN2-1" for i in range(3)]
        log = parse_behaviors_file(write(tmp_path, "b.tsv", rows, "utf-8-sig"))
        assert [r.impression_id for r in log] == ["0", "1", "2"] and not log.issues


class TestSplit:
    def _log(self, tmp_path, n):
        rows = [f"{i}\tU{i}\t11/11/2019 {1 + i % 11}:00:00 AM\tN1\tN1-1 N2-0"
                for i in range(n)]
        return parse_behaviors_file(write(tmp_path, "b.tsv", rows))

    def test_chronological_fractions(self, tmp_path):
        log = self._log(tmp_path, 20)
        train, val, test = split_log_by_time(log, 0.2, 0.1)
        assert (len(train), len(val), len(test)) == (14, 4, 2)
        assert max(r.time for r in train) <= min(r.time for r in val)
        assert max(r.time for r in val) <= min(r.time for r in test)

    def test_bad_fractions_rejected(self, tmp_path):
        log = self._log(tmp_path, 5)
        with pytest.raises(ValueError):
            split_log_by_time(log, 0.8, 0.4)
