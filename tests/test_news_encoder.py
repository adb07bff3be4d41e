import dataclasses
import json

import numpy as np
import pytest

import avoidrec.autodiff as ad
from avoidrec.corpus import PAD_INDEX, NewsArticle, parse_news_file
from avoidrec.model import VocabSizes
from avoidrec.news_encoder import NewsEncoder
from conftest import tiny_config, total


def make_encoder(seed=0, n_words=12, **kw):
    return NewsEncoder(tiny_config(**kw), VocabSizes(n_words, 3, 5), np.random.default_rng(seed))


class TestEncodeTitle:
    def test_all_padding_yields_zeros(self):
        enc = make_encoder()
        out = enc.encode_titles([[0, 0, 0, 0]])
        assert np.array_equal(out.data, np.zeros((1, 8)))
        # inside a batch, the empty title is a zero row and the others are unchanged
        batch = enc.encode_titles([[5, 6], [0, 0, 0], [7]]).data
        assert np.array_equal(batch[1], np.zeros(8))
        assert np.allclose(batch[0], enc.encode_titles([[5, 6]]).data[0], atol=1e-12)
        assert np.allclose(batch[2], enc.encode_titles([[7]]).data[0], atol=1e-12)

    def test_single_token_equals_its_contextual_row(self):
        enc = make_encoder()
        tokens = np.array([[5, 0, 0, 0]])
        mask = tokens != 0
        contextual = enc._contextualize(tokens, mask)
        pooled = enc.encode_titles(tokens)
        # softmax over one unmasked position puts weight 1 on it
        assert np.allclose(pooled.data, contextual.data[0:1], atol=1e-12)

    def test_pad_positions_permutable(self):
        enc = make_encoder()
        a = enc.encode_titles([[5, 0, 7, 0]]).data
        b = enc.encode_titles([[5, 7, 0, 0]]).data
        assert not np.allclose(a, 0)
        # Same real tokens, shifted pads: self-attention sees the same
        # unmasked set, additive pooling the same positions' content.
        assert np.allclose(a, b, atol=1e-10)

    def test_pad_embedding_content_never_leaks(self):
        enc = make_encoder()
        tokens = [5, 7, 0, 0]
        before = enc.encode_titles([tokens]).data.copy()
        enc.word_emb.data[0] = 1e4  # poison the padding row
        after = enc.encode_titles([tokens]).data
        assert np.array_equal(before, after)

    def test_output_width(self):
        enc = make_encoder()
        titles = ([5], [5, 6, 7], [0, 3])
        for tokens in titles:
            assert enc.encode_titles([tokens]).data.shape == (1, 8)
        assert enc.encode_titles(titles).data.shape == (3, 8)


class TestEncodeNews:
    def art(self, nid="N1", cat=1, toks=(5, 6, 0, 0), ents=()):
        return NewsArticle(nid, cat, list(toks), entity_ids=list(ents))

    def test_disabled_entities_match_empty_entity_list(self):
        enc_off = make_encoder(use_entities=False)
        enc_on = make_encoder(use_entities=True)
        # same rng consumption order differs; compare within one encoder:
        out_empty = enc_on.encode_news([self.art(ents=[])]).data
        enc_on.ent_emb.data[:] = 123.0  # irrelevant when list empty
        assert np.array_equal(out_empty, enc_on.encode_news([self.art(ents=[])]).data)
        assert enc_off.encode_news([self.art(ents=[])]).data.shape == (1, 8)

    def test_entity_channel_changes_output(self):
        enc = make_encoder()
        a = enc.encode_news([self.art(ents=[])])
        b = enc.encode_news([self.art(ents=[2])])
        assert not np.allclose(a.data, b.data)

    def test_category_distinguishes_articles(self):
        # Over many inits, differing only in category must change the output.
        for seed in range(100):
            enc = make_encoder(seed=seed)
            a = enc.encode_news([self.art(cat=0)]).data
            b = enc.encode_news([self.art(cat=1)]).data
            assert np.linalg.norm(a - b) > 0

    def test_unknown_category_is_hard_error(self):
        enc = make_encoder()
        with pytest.raises(IndexError, match="category"):
            enc.encode_news([self.art(cat=99)])

    def test_deterministic(self):
        enc = make_encoder()
        art = self.art(ents=[1, 3])
        assert np.array_equal(enc.encode_news([art]).data, enc.encode_news([art]).data)

    def test_gradients_reach_all_tables(self):
        enc = make_encoder()
        art = self.art(cat=2, toks=(5, 6, 7, 0), ents=[1])
        with ad.ComputationRecord() as rec:
            loss = total(enc.encode_news([art]))
        rec.backward(loss)
        assert np.abs(enc.word_emb.grad[5]).sum() > 0
        assert np.abs(enc.word_emb.grad[4]).sum() == 0  # untouched row
        assert np.abs(enc.cat_emb.grad[2]).sum() > 0
        assert np.abs(enc.ent_emb.grad[1]).sum() > 0

    def test_grad_check_through_encoder(self):
        enc = make_encoder()
        arts = [self.art(toks=(5, 6, 0, 0), ents=[2, 4]),
                self.art(nid="N2", cat=2, toks=(7, 0, 0, 0), ents=[]),
                self.art(nid="N3", toks=(0, 0, 0, 0), ents=[1])]
        weights = ad.constant(np.linspace(0.5, 1.5, 24).reshape(3, 8), dtype=np.float64)

        def fn():
            return total(ad.mul(enc.encode_news(arts), weights))

        params = list(enc.parameters().values())
        assert ad.grad_check(fn, params, eps=1e-5, max_coords_per_param=8) < 1e-3

    def test_parsed_titles_match_titles_padded_to_max_title_len(self, tmp_path):
        # Parsed titles are unpadded tuples; the same ids right-padded to
        # max_title_len as lists must give bit-identical news vectors.
        ents = json.dumps([{"WikidataId": "Q1"}, {"WikidataId": "Q2"}])
        rows = ["N1\tsports\tsoccer\tTeam wins the final\tabs",
                "N2\tnews\tworld\tHello, WORLD\tabs\thttp://u\t" + ents,
                "N3\tnews\tworld\t\tempty title",
                "N4\tsports\ttennis\tOne two three four five six seven eight\tabs",
                "N5\tsports\ttennis\t\tanother empty title"]
        news_path = tmp_path / "news.tsv"
        news_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        max_title_len = 6
        catalog, vocab = parse_news_file(news_path, max_title_len)
        parsed = catalog.articles
        padded = {n: dataclasses.replace(
            a, title_tokens=list(a.title_tokens)
            + [PAD_INDEX] * (max_title_len - len(a.title_tokens)),
            entity_ids=list(a.entity_ids)) for n, a in parsed.items()}
        assert parsed["N3"].title_tokens == () and len(parsed["N4"].title_tokens) == 6
        enc = make_encoder(n_words=len(vocab))
        for batch in (["N1", "N2", "N3", "N4", "N5"], ["N3"], ["N3", "N5"], ["N5", "N4"]):
            out = enc.encode_news([parsed[n] for n in batch]).data
            assert np.array_equal(out, enc.encode_news([padded[n] for n in batch]).data), batch

    def test_batch_rows_equal_single_encodings(self):
        # Titles of different lengths share one batch cut to the longest;
        # each row must equal the article encoded on its own.
        enc = make_encoder()
        arts = [self.art(toks=(5, 0, 0, 0), ents=[]),
                self.art(nid="N2", cat=0, toks=(6, 7, 8, 9), ents=[1, 3]),
                self.art(nid="N3", cat=2, toks=(0, 0, 0, 0), ents=[4]),
                self.art(nid="N4", cat=1, toks=(9, 0, 4, 0), ents=[2])]
        batch = enc.encode_news(arts).data
        assert batch.shape == (4, 8)
        for row, art in zip(batch, arts):
            assert np.allclose(row, enc.encode_news([art]).data[0], atol=1e-12)


class TestFusedProjection:
    def test_wqkv_holds_the_query_key_value_draws_in_order(self):
        enc = make_encoder(seed=4)
        rng = np.random.default_rng(4)
        rng.uniform(-0.1, 0.1, size=(12, 8))  # word embeddings
        draws = [ad.xavier_uniform(rng, 8, 8, dtype=np.float64) for _ in range(3)]
        assert np.array_equal(enc.wqkv.data, np.concatenate(draws, axis=1))
        assert np.array_equal(enc.att_w.data, ad.xavier_uniform(rng, 8, 6, dtype=np.float64))

    def test_projecting_distinct_tokens_matches_per_position_attention(self):
        # Tokens recur within and across titles; projecting each distinct
        # token once and gathering must equal projecting every position.
        enc = make_encoder(seed=2)
        tokens = np.array([[5, 7, 5, 0], [7, 3, 0, 0], [9, 9, 9, 5]])
        mask = tokens != 0
        got = enc._contextualize(tokens, mask).data.reshape(3, 4, 8)
        x = enc.word_emb.data[tokens]
        q, k, v = (x @ w for w in np.split(enc.wqkv.data, 3, axis=1))
        for t in range(3):
            d_head = enc.d_news // enc.n_heads
            for h in range(enc.n_heads):
                cols = slice(h * d_head, (h + 1) * d_head)
                scores = q[t, :, cols] @ k[t, :, cols].T
                scores = np.where(mask[t][None, :], scores, -np.inf)
                weights = np.exp(scores - scores.max(axis=1, keepdims=True))
                weights /= weights.sum(axis=1, keepdims=True)
                assert np.allclose(got[t, :, cols], weights @ v[t, :, cols], rtol=0, atol=1e-12)

