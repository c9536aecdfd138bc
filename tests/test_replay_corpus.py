"""Replay pinned on the mutated ingest corpus of tests/test_ingest_diff.py.

Every case that ingests is replayed and a sha256 digest of the outcome is
compared with the one recorded below: the timeline's times/oom/ideal
columns per rank and the anomaly (kind, location, detail) entries in
order.  The corpus includes traces whose collective occurrences do not
match their communicator's membership (seeds 4, 21, 28, 1013, 1015,
1019, 1021, 1026), so the per-occurrence skip runs on ingested input.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from paraslice import replay
from paraslice.prv import IngestError, load_trace

from test_ingest_diff import CASES, corpus_file

DIGESTS = {
    0: "ee76794d800806947bf0c64b2845fa0fd83a1d0946035c47c6d69db2b054b67b",
    1: "06558c7c173772ce509586da89735ec5bf366c009582bcbeb57330d370dddd53",
    2: "14b771022546b1ed467a1d2e13c170005e3db3f662b9a2f706c35640aec5a718",
    3: "4cebaefa944916f47da8c968b70d2ba35affd03b22523e37f8a13fae14312010",
    4: "0630d6862d697f368d45cd3b7cbf915a9fa309e0a399968301cb8b70344da7c2",
    5: "b1ed09f079217dacedc92bbba56be52453c7655f27e6cfe21bf0296e6d8fc03e",
    6: "70d4f3e11b09bf2a2f6ae037ae82ce10a97acca847ba62ad50782999e2801824",
    7: "891b5989069db78b9a4e2cc263c128bdc3318208d472d20524abf82436972776",
    8: "695041c139361ae1030bdfc794c4442a21165f34cf4e280d2c402dcba607e537",
    9: "76b0e68cbb244807af65c38cf762606c2592b523236c2c20dc625912a0f268ee",
    10: "3a4f57af1bff8e61f9c41b2294c1f0c4aa608275a387ca69b7668e251b64c78d",
    11: "8ea60867381db8d624de88e0ae4bc7d50ee11b794fac1ca06a4b1085d517b900",
    12: "a5ca88ef46a5d6b7e8a92c4d4c2872a0dd69a9a994295546d3429208faff300e",
    13: "48c4a33b9b358617ef305024fa1ade53d91f19ca7a2b230bd92f2e160e02479a",
    14: "7ebd92cb20fa82112d8e4693f0254b5f60530d588aab5e4853a872dfe9ba2fba",
    15: "68bea61d8d497ca38e141289cb614b33842ae97c78b6467040afabd01e80df87",
    16: "bbb7d280defca61c2a04d338da2ff87e2ee3cd334e83645420df89a75db0246a",
    17: "39c73a140d09f36b2fc1f8c2eab87007c60ec6c1f9ba7c38d6daf5e8e0a17d3d",
    18: "64e1b7e6c4c96d560d6d55064632cf0c157bfb0cb6527e30960a35f8f086b22a",
    19: "3de4ba6d98428b6bf2759813ed996cc598b4acb8d605d1f7e2dcc823b656921f",
    20: "cd7f8b900600d4ef324d2368b370638d26c10f3f805c2068457e03dc3424a381",
    21: "ab1993da728e1638fc523df4cdc5e51f5d12871e760fd7a0939a635214eec842",
    22: "9e488d5c5e5211b1f32627045e6bd8fc774b87579f6826b042b6c3dc903fc253",
    23: "ac89c3a8bf3ed44608243a49d05eabaff6cf48e8b3e009c66feff916b420dd59",
    24: "0dc5df7f4da047c9ba5543e4e8ae33846186aa55fd5cc75ea31d45a43ba57a2e",
    25: "7ed6fd85e3ce6ae25169bcc1719a1598eb6b9bc1f5096934aad3cb47599690ce",
    26: "1807de900101d53f27ce750f2e766f173013394d67e58255df0c4dc257a848a8",
    27: "e3f30dfd33b0c57c4873153a98c13d5da9d76c1cb493f77232de23a24ace0d2e",
    28: "fa898134f48ace94b8ad582590527719706c74996fdceff14268c8ca48f286b0",
    29: "c7a8852f0b6eeeee3f26a9468d8f82410275ed145845cd0f3712807cfd467ef7",
    30: "273b11d06eef36c7583fa3962e65db75888c24222fc69ed3c8a35f7970843c6a",
    31: "947f5cf1d240791cc16eda88e96bd05c90818c2ec38dc40afb21c341bab83ab5",
    32: "16fbaf8f06817f771f8ebdb64cb7773ba085506964bd3ce04c3993898a132dfc",
    33: "70a89364cbc6e4c7e8f7215a15afeee2d428c1ba7526b1304739a310adf24488",
    34: "ad777575128c134fab6e0b219b5c6e440b2803df376763f195f346bb71d01d7e",
    35: "c991a9e4efde0c61ede92e1281ed55ad91da809a86e295aa8d37ce3876de34b6",
    36: "74a48d276f3ed36dc649feb3af0c2d99bc9ac1ef4825f68786176dcbd41bf96d",
    37: "508e359a8af4c9432c1f8af91f4b74f8945e3a70fe90e326818388055ac949b6",
    38: "74f5b5cf2ac034d29d9345d6fbe873a00bfbe910ab0d7932e05dfd1e8ee5a677",
    1000: "b5065834b22ff605e828b77607e228aa82ed368bf1a8619e81a6d1fde3340a7d",
    1001: "43340a78f61b4d494f246696715a55e6bf4041dbf8dc85c15be35dc4a97baa86",
    1002: "baecf5cfc0bd551aba725c8ff040bb0b917dc09d4713a62e2b6d315afc884129",
    1003: "c961ca9e3e3d5126f8095542153ea07b9e005fefc5566374e5caa2f8da0c1745",
    1004: "68fc1f8580e709d1c9f0860d602d8255aa8b0a47a08d4203f62cc9eec5715553",
    1005: "380741e4a65678a64cffee0ad9751231147677dfb82968e5ef7f5e17b0add9ea",
    1006: "77fe2a665857f6ea4c05c83a05d0efc7d5b662984e1961994b78844c30d664be",
    1007: "81d653d4412ca2ee5ef3e3c31df137a2f811a42894ed28e5a0208d5ade57478b",
    1009: "781fa64fb70335174355f3eb0876d19583c97437d3f39d3b29babfe6a2a028bc",
    1010: "de7a28f6f2bcb6b3651d23198dbc0fd13cd8ab2dcb1b0cc4bf536c982938e075",
    1011: "8a8dd63807f580821abe24ea9485394213bb4f794232d914a313798960cc8d7f",
    1012: "f2f416a0c2aa0d33f33d31cdeaf43044c3e7b274bff294b9cc8101d8e2f731ee",
    1013: "58b04a9a8f6c3d7c05a252b7337aa7fddef27d1b839caa6dfa9db651ef754117",
    1014: "c46f9bafa8513bb5b5f3a304446fcee86f50b85067149d8339f1b52736f7b2e7",
    1015: "631b46854335778d99ab273fe38c17bcb56c801bc223c70d6f03f1e826c505c4",
    1018: "0289eabc53d7b10ee90ba01a777af1de71a48f4e2a8613120c653c18f76a8ed0",
    1019: "8fb780a5e8a960f4f1b23ab09c921883283c7dd8e13f0e652510445fc9012e14",
    1020: "ee0457fbe15bedac002b41b2631906b33e8f22f715699f1b8364018392dd0d95",
    1021: "5de2fb19d6a9852dfa370a229c0c0cc52526cfc3fa9342982471f7dca74a3fd9",
    1023: "0735f9454843c0c18241ba5fe6400beda3255ea9a4e3c8351f33928505533c91",
    1024: "0a41898a46ca66eb6471104038454b7ec42d2b1aa2eec0b3677132bca7fdc11d",
    1025: "39f9ae6230f46749aea1009343a1783712a67013b611aafe93a9ba0e808e4bf2",
    1026: "73042a2c06276e5840dae6c041795168ff2a157cfcbf7d6784821fa8d3491b14",
    1027: "411a4a2bf662095b66a7d16a149f7466050e3261818d15bb372c437d33d5b8e3",
    1028: "47afefed7111e0d3c0ec375b94ef21aea3d459c4e918ee851b0c2392bf30bc61",
    1029: "1c648f6f911147ada5f82f8394a51239979b9b328da295bffb71334fa9c50f2e",
    1030: "5354573d0a215b2236dbac53e65122b922b90ea3512689a5406dd6c09aaecbba",
    1031: "0854f3de6eb4acd3f5809b1f9b2f77fdafcd3ba5fd2de3278e53a74078a4c539",
    1032: "59f2b51e2721dfa8bc05b0ce1358438ae2dc072c1a79da3a913509c5dfa22bc1",
    1033: "63d0cc24379a8b1539c124b8611680e2b9f3caaa0d3420321121171715d2c213",
    1034: "bab0fde7c926af940040eed786030b8dbb87e77a82ad96b9abfcf94124bb7263",
    1036: "e897e0ba447aa8215954414229dfa020d44fd60fcca581c2399566e9281786ed",
    1037: "2be7d652955b5b080a1c54a04ecd9be8a1b27fc590a88431d81be53be55beacf",
    1038: "b13e94bad7eedf6b612576613bb67d3e040b7d73c3eb58f8ef8b1f0092519689",
    1039: "a23c23c5616daaf2b67644ab6f7d4eaada0f6c9c7f6f8d009b3ead9da8992f83",
}


def outcome_digest(trace) -> str:
    timeline, log = replay(trace)
    h = hashlib.sha256()
    for tl in timeline.ranks:
        for col in (tl.times, tl.oom, tl.ideal):
            h.update(len(col).to_bytes(8, "little"))
            h.update(np.asarray(col, dtype=np.int64).tobytes())
    for e in log.entries:
        h.update(f"{e.kind.value}\t{e.location}\t{e.detail}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed,mutators", CASES,
                         ids=[f"{s}-{'+'.join(m.__name__ for m in ms)}"
                              for s, ms in CASES])
def test_replay_outcome_pinned(tmp_path, seed, mutators):
    path = tmp_path / "t.prv"
    path.write_bytes(corpus_file(seed, mutators))
    try:
        trace, _, _ = load_trace(str(path))
    except IngestError:
        assert seed not in DIGESTS
        return
    assert outcome_digest(trace) == DIGESTS[seed]


def test_corpus_has_membership_mismatches(tmp_path):
    """The seeds named above replay a skipped collective occurrence."""
    seeds = []
    for seed, mutators in CASES:
        path = tmp_path / f"{seed}.prv"
        path.write_bytes(corpus_file(seed, mutators))
        try:
            trace, _, _ = load_trace(str(path))
        except IngestError:
            continue
        _, log = replay(trace)
        if any("do not match communicator membership" in e.detail
               for e in log.entries):
            seeds.append(seed)
    assert seeds == [4, 21, 28, 1013, 1015, 1019, 1021, 1026]


@pytest.mark.parametrize("sweep", [
    "every_wave_wide", "every_wave_scalar",
    "every_wave_wide+without_cuts", "every_wave_scalar+without_cuts"])
def test_replay_outcomes_pinned_on_both_sweep_paths(tmp_path, request, sweep):
    """The pinned digests hold with either sweep path forced, with and
    without cuts at all-rank collectives."""
    for fixture in sweep.split("+"):
        request.getfixturevalue(fixture)
    differ = []
    for seed, mutators in CASES:
        path = tmp_path / f"{seed}.prv"
        path.write_bytes(corpus_file(seed, mutators))
        try:
            trace, _, _ = load_trace(str(path))
        except IngestError:
            continue
        if outcome_digest(trace) != DIGESTS[seed]:
            differ.append(seed)
    assert differ == []
