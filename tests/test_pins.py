import re

from pins import PINS, check

FASTEST = "rgd --example standard --p 2 --K 6"


def test_pins_are_distinct_rows_with_full_prefixes():
    assert len({pin.name for pin in PINS}) == len(PINS)
    assert len({pin.argv for pin in PINS}) == len(PINS)
    assert all(re.fullmatch("[0-9a-f]{16}", pin.prefix) for pin in PINS)


def test_check_passes_on_a_row_and_fails_on_each_altered_field():
    # each altered field fails the row with one message, naming that field
    (pin,) = [pin for pin in PINS if pin.argv == FASTEST]
    assert check(pin) == []
    prefix = ("1" if pin.prefix[0] == "0" else "0") + pin.prefix[1:]
    assert check(pin._replace(prefix=prefix)) == [f"sha256 prefix {pin.prefix}, pinned {prefix}"]
    assert check(pin._replace(lines=pin.lines + 1)) == [f"{pin.lines} lines, pinned {pin.lines + 1}"]
    counts = {**pin.counts, '"pass":true': 5}
    assert check(pin._replace(counts=counts)) == ['"pass":true 6 times, pinned 5']
