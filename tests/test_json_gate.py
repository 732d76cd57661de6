"""Fixed-seed JSON reports stay byte-identical.

Each digest is the sha256 of ``serialize(run_pipeline(src, seed=0), "json")``
for one benchmark case, recorded before support-matrix entries became sparse
shift dicts (S1: before the mixed subdivision became a walk over cells;
S6: when binomial systems gained their closed form, S6's first solved
run; corpus2: when ``alg_essential`` began to name input polynomials,
which moved its third row from "poly": 2 to 3).  A change that alters a
byte of a report fails here.  The exact ``paranoid`` route must give the
same bytes as the randomized one.
"""

import hashlib
import pathlib

import pytest

from sdres import parse_system, run_pipeline, serialize

CASES = pathlib.Path(__file__).resolve().parent.parent / "bench" / "cases"

DIGESTS = {
    "toy":
        "56ce1f83f1065ef40cf41703488053b554f3e027cbc1a7df818d9ff33bface11",
    "golden":
        "459566df25d93ed010400b6081e4bd5a8fcab6561fe3eed8633c23ec433431df",
    "corpus1":
        "75581cf92b667b2b01a5daf0e9c2a3144098563d46b6a14493c87e6109d39fd8",
    "corpus2":
        "55178e375fd91a692c3c85a7c8b96dcce084931e4f3331bbe5c40a3523b97453",
    "corpus3":
        "614f0c5536789226c2e74dc521e92a1b8b79131b2774ef15827a6ec94807acff",
    "corpus4":
        "c319845ba2875415a3ca0c97ca7ef291f49cfe19fff4af6cd271ea22deed19a3",
    "corpus5":
        "ae9574a2b9736eba35080c476a330230f764f2798fb4055fe4588055fdeeb325",
    "shift20":
        "2be85c112f80c0057764c4e52202a9566888c40414e4a025392488878ec89012",
    "shift30":
        "d2fe2b6fbc7455595f49e68aa1ac3d84784cdb4c607b5889d1687a57ab3566ee",
    "S4":
        "d0ef927bba86bf011421d07bb0aa44f56c59db380541f8d96762c6dd3e38ead8",
    "N1":
        "94a8b161b866a5fa69c76454776f0819574c18e07437fecdbc1acca98f44fc32",
    "s1_4_3":
        "07f8c577c79748f07399b3bba3279ee011e66b4d7a930d32457ac28084e36346",
    "s1_4_5":
        "8afceb13c45ec88f54b76e749ae312b64fef062a9f7c9214bf4b97f70d2bf0c9",
    "S1":
        "484d16cdf0373908729607d63df44f35cd423a3c04f243f92f705b3e8116b51e",
    "S6":
        "8dcffae35aea7a489773147dce649a7f3118f0d6338aec49ce9e0dfa7b23511d",
}


@pytest.mark.parametrize("case", DIGESTS)
def test_json_report_is_byte_identical(case):
    src = parse_system((CASES / f"{case}.sys").read_text())
    payload = serialize(run_pipeline(src, seed=0), "json")
    assert hashlib.sha256(payload).hexdigest() == DIGESTS[case]
    assert serialize(run_pipeline(src, seed=0, paranoid=True), "json") == payload
