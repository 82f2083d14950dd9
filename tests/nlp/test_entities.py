"""Tests for the gazetteer + pattern entity recognizer."""

import pytest

from repro.nlp import Entity, EntityRecognizer, EntityType, Gazetteer, tokenize


@pytest.fixture()
def recognizer():
    g = Gazetteer()
    g.add("Taj Mahal", EntityType.LOCATION)
    g.add("Pope John Paul II", EntityType.PERSON)
    g.add("Hollywood Cemetery", EntityType.LOCATION)
    g.add("Tourette's Syndrome", EntityType.DISEASE)
    g.add("Acme Industries", EntityType.ORGANIZATION)
    return EntityRecognizer(g)


class TestGazetteer:
    def test_add_and_contains(self):
        g = Gazetteer()
        g.add("New York", EntityType.LOCATION)
        assert "New York" in g
        assert "new york" in g  # case-insensitive
        assert "Boston" not in g

    def test_lookup_returns_type(self):
        g = Gazetteer()
        g.add("Paris", EntityType.LOCATION)
        assert g.lookup(["Paris"]) is EntityType.LOCATION
        assert g.lookup(["paris"]) is EntityType.LOCATION
        assert g.lookup(["London"]) is None

    def test_max_phrase_len_tracks_longest(self):
        g = Gazetteer()
        g.add("A", EntityType.PERSON)
        g.add("One Two Three Four", EntityType.ORGANIZATION)
        assert g.max_phrase_len == 4

    def test_longest_match_prefers_the_longer_phrase(self):
        g = Gazetteer()
        g.add("New York", EntityType.LOCATION)
        g.add("New York Times", EntityType.ORGANIZATION)
        lowered = ["the", "new", "york", "times", "new", "york"]
        assert g.longest_match(lowered, 0) is None
        assert g.longest_match(lowered, 1) == (4, EntityType.ORGANIZATION)
        assert g.longest_match(lowered, 2) is None  # not a phrase start
        assert g.longest_match(lowered, 4) == (6, EntityType.LOCATION)

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError):
            Gazetteer().add("   ", EntityType.PERSON)

    def test_add_many(self):
        g = Gazetteer()
        g.add_many(["a b", "c"], EntityType.PRODUCT)
        assert len(g) == 2


class TestRecognizer:
    def test_gazetteer_phrase_found(self, recognizer):
        ents = recognizer.recognize("I saw the Taj Mahal yesterday")
        assert any(
            e.text == "Taj Mahal" and e.type is EntityType.LOCATION for e in ents
        )

    def test_longest_match_wins(self, recognizer):
        ents = recognizer.recognize("Pope John Paul II spoke")
        persons = [e for e in ents if e.type is EntityType.PERSON]
        assert persons[0].text == "Pope John Paul II"

    def test_spans_point_into_text(self, recognizer):
        text = "They visited Hollywood Cemetery in June 1990."
        for e in recognizer.recognize(text):
            assert text[e.start : e.end] == e.text

    def test_date_month_year(self, recognizer):
        ents = recognizer.recognize("It happened in June 1990 near here")
        dates = [e for e in ents if e.type is EntityType.DATE]
        assert dates and dates[0].text == "June 1990"

    def test_date_full(self, recognizer):
        ents = recognizer.recognize("on January 5, 1999 it rained")
        dates = [e for e in ents if e.type is EntityType.DATE]
        assert dates[0].text == "January 5, 1999"

    def test_bare_year(self, recognizer):
        ents = recognizer.recognize("back in 1987 things differed")
        assert any(e.type is EntityType.DATE and e.text == "1987" for e in ents)

    def test_small_number_is_number_not_year(self, recognizer):
        ents = recognizer.recognize("she bought 42 apples")
        assert any(e.type is EntityType.NUMBER and e.text == "42" for e in ents)

    def test_money(self, recognizer):
        ents = recognizer.recognize("it cost $3 million to build")
        money = [e for e in ents if e.type is EntityType.MONEY]
        assert money and money[0].text == "$3 million"

    def test_percent(self, recognizer):
        ents = recognizer.recognize("roughly 15% of users left")
        assert any(e.type is EntityType.PERCENT for e in ents)

    def test_distance_quantity(self, recognizer):
        ents = recognizer.recognize("the tower rises 300 meters above")
        distances = [e for e in ents if e.type is EntityType.DISTANCE]
        assert distances and distances[0].text == "300 meters"

    def test_duration_quantity(self, recognizer):
        ents = recognizer.recognize("the trip took 3 days in total")
        assert any(e.type is EntityType.DURATION for e in ents)

    def test_nationality(self, recognizer):
        ents = recognizer.recognize("the Polish pope visited")
        assert any(e.type is EntityType.NATIONALITY for e in ents)

    def test_extra_nationalities(self):
        r = EntityRecognizer(Gazetteer(), extra_nationalities=["Golite"])
        ents = r.recognize("a famous Golite explorer")
        assert any(e.type is EntityType.NATIONALITY for e in ents)

    def test_honorific_person(self, recognizer):
        ents = recognizer.recognize("we met Dr. Jane Doe at the lab")
        persons = [e for e in ents if e.type is EntityType.PERSON]
        assert persons and "Jane Doe" in persons[0].text

    def test_unknown_capitalized_run(self, recognizer):
        ents = recognizer.recognize("she flew to Zanzibar City overnight")
        unknown = [e for e in ents if e.type is EntityType.UNKNOWN]
        assert unknown and unknown[0].text == "Zanzibar City"

    def test_sentence_initial_stopword_not_entity(self, recognizer):
        ents = recognizer.recognize("The weather was fine.")
        assert not any(e.text == "The" for e in ents)

    def test_recognize_typed_filters(self, recognizer):
        text = "Pope John Paul II visited the Taj Mahal in 1987"
        only_loc = recognizer.recognize_typed(text, EntityType.LOCATION)
        assert {e.type for e in only_loc} <= {EntityType.LOCATION, EntityType.UNKNOWN}
        assert any(e.text == "Taj Mahal" for e in only_loc)

    def test_recognize_typed_includes_unknown_for_person(self, recognizer):
        text = "Smithers Malone walked in"
        persons = recognizer.recognize_typed(text, EntityType.PERSON)
        assert persons  # unknown capitalized run accepted as weak candidate

    def test_recognize_typed_excludes_unknown_for_date(self, recognizer):
        text = "Smithers Malone walked in"
        dates = recognizer.recognize_typed(text, EntityType.DATE)
        assert dates == []

    def test_spans_are_recognize_without_the_text(self, recognizer):
        text = (
            "The Polish Pope John Paul II met Dr. Alan Smith on January 5, "
            "1999 , paid $3 million ( 15% ) and walked 300 meters in 3 days."
        )
        tokens = tokenize(text)
        spans = recognizer.spans([tok.text for tok in tokens])
        assert [etype for _, _, etype in spans] == [
            EntityType.NATIONALITY, EntityType.PERSON, EntityType.PERSON,
            EntityType.DATE, EntityType.MONEY, EntityType.PERCENT,
            EntityType.DISTANCE, EntityType.DURATION,
        ]
        assert recognizer.recognize(text, tokens) == [
            Entity.from_tokens(text, tokens, i, j, etype)
            for i, j, etype in spans
        ]

    def test_empty_text(self, recognizer):
        assert recognizer.recognize("") == []

    def test_no_overlapping_entities(self, recognizer):
        text = "Pope John Paul II met Dr. Alan Smith in June 1990 at the Taj Mahal"
        ents = recognizer.recognize(text)
        for a, b in zip(ents, ents[1:]):
            assert a.end <= b.start
