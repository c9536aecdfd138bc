"""The command line pinned on the mutated ingest corpus of
tests/test_ingest_diff.py.

Every case is analyzed three ways (plain, --strict, and --format json
--plot), each into its own directory, and one sha256 digest per case
covers, for each run in that order, the exit code, stdout, stderr and
every output file (name and bytes, by name), so any drift in an output
byte, a message or an exit code shows here.  The temporary directory is
masked in stdout and stderr.  On every case, the strict run fails (exit
5) exactly when the plain run succeeds with anomalies logged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from paraslice.cli import main

from test_ingest_diff import CASES, corpus_file

MODES = ((), ("--strict",), ("--format", "json", "--plot"))

DIGESTS = {
    0: "50b8c92a5152d4fe0bd5c2ed493e47db9077206003433f29a0459db6d4d223e6",
    1: "9422647a52d391ff40bdec4850f761d8703287cd22190e5e2aa30fe7c397cdf1",
    2: "db2a36cd0fd2cd36c4ba81b19c577619eaa8f2c117b48cabf338b216f5bec67a",
    3: "811d39efc90a76c5f9ddb1e757171160cc35b9795b08a976668ea57113df3ee7",
    4: "545d9fffb1aa4576098c89f6680def68a4ceb19243020a0c463d49ff738ae2be",
    5: "a6ddfdf70d5acad13fea8a95e5c1dd7c6cd9722f58f02d9440e98ac088fe0b5a",
    6: "17f5ddfa2d5ae43cc3b1c02baacdf19f350a10a2e7e95c9d5134b07b188794a3",
    7: "02b2edcfd48b1536ba46abced21f2957eaef240f5b9ed0ab0578892132975cfb",
    8: "15493d4e441fb277a65bf46895422c64cdae3aeaa3f848b384216d193a373697",
    9: "e6367f151e0526171ceb5e030df69bb106a16e450c6a3d3eeb3a14c2e28f20be",
    10: "d94a42eb59f6f4176c2498dadca10ff0cce5849f5cc6f7e94b3a9d8aa3adffb4",
    11: "0488ebf0c2b9f35562951c7dc6ca88da34131c4cdd7c11c4e0013b1171990225",
    12: "18bc548bbc9ff3d5412387e79a90a8c185fa14a6ffc6c9be6248aa8bba87cddd",
    13: "faf71d12c6c5f8e8d6f20b03cd269a5df525891f7d4d5fec124621ab2a935362",
    14: "0b6101fa6da488d6e2afbd59ff5e5a282d103dc2c234ffcfcab221127b1d2f1a",
    15: "941a686cc4a9c7b0bdff6ac523a5debcce408acf648e21e84b35874a6bb4adfe",
    16: "0c8473a34e96376091c487076b9c4b4520d28c0e94386e5119cbcc67b77cd34d",
    17: "f16226ba093c994c8c4d6a21a9ffeced6537156d467fd62e56a3f8435fe9dddb",
    18: "a240fb46e2492f70b2e07e3da2ad97836a8bd90b1e13e5f1d3ecce7b55d2b621",
    19: "4ecf5315e0168a1398ff254b71dfcf5d4a116cafa89079b98371433b010f089b",
    20: "e49b0addfd369d3f743d3e6cdc6bcb81accc0458b33ed59a94456192070c7716",
    21: "602038efbbe9e2f8941e6d9fff6a364bf4173a1bfe25f499f946a468521d843a",
    22: "16b59ebddc720c5f884aa86bded05e2fb0eadff58ab5dc38d4db2774d2d43ff1",
    23: "7b2741a9ad1fb60ff8afa9908833ecf87047062167b3a84a72055eff7e5271f1",
    24: "2c00e27d40c47cc33c3c3e5751c3578ec020c1645377f3f2a2700657a9292af5",
    25: "99c307b5646eebca4588976de41a2f9c760dc46f0aae0bbd91f3f5b9bb6ff371",
    26: "b758e1a4ce8fc1c19d468ecd59d815a7d65a0f8c226c1a4432b10029b375f81c",
    27: "17e17dbb9870aa752c847ce4beef21639b8fc4a85ebe89dbefa5c9d21b0efa84",
    28: "4437866bb124d0a23dd682b258b15eefb1a5757fdc7a81017650ead53678660e",
    29: "4bb8d90e2c3c665af6e111280a3e45eeb81cf55a9b1ce0406c2957c5e68e4bf6",
    30: "09981522e6bfd721d11c0c0ed1f2a6b58489e809d3ae9d35403ed0ede7c76d77",
    31: "f29ca79152c6ece6c12aa9878847bf6b84561c29b87f66a4e056432b4c3e52f8",
    32: "1e9d969c442e023bd092341929bdfc0e1761dfffe7bdd6c7583e85cc0d317552",
    33: "23b52053396a1036f73be689abea693bbe38aca67fed59c830d55101595226de",
    34: "1a796d574935a2f0aa971d751373d8f8b8d17bc69b201018a533568ef502352b",
    35: "6298649e2aa7ec2ae2a41e599e56cc693dddfa034eedb96e0e4b7c2a6b641320",
    36: "4c632b87afae04439ae752e397a54a46d611faba8a439b89d5a7538172207bd7",
    37: "9ef5f1a29b86d121fae358e58e186d8c23cf2b77142d229552df4f6089aa47d7",
    38: "e83dd7475bf2f3b0b8f3aec7bf681c9418f00ddf24c57f2cf284362963927822",
    39: "866680d31d4dc7a784613e370cbe23c85a1e2ed5e3a15139f22095584ef80432",
    1000: "5eed0a3d0167a0aee11cdfdca335f88124bbb0501e5bd9f6d43d3bb703502006",
    1001: "1983a5b157a91d40f2c63dd5437743a9c8349f50c85873644ad8039aff760530",
    1002: "1d54381beb885bc9572c2a053f8cd35b30b52340cd84881cc1a1fffbd969fd99",
    1003: "3da85c43e012595993c5ead2afaa8cc985b110cfebfd64513f4c0db02712f822",
    1004: "c95546a282f070edd97841bae794e952267b2145093895d4c00869691abdc844",
    1005: "8218588028c18beebbe37188cf974fa4933d6288f5bd1497ca0904f980e7fc90",
    1006: "cbbe5c4ceb973023402ced5f100c1a226e29f669c782385d67d2aa3cc9136f66",
    1007: "38dec39684229377d9cd0ba0cc8b22ebc4b6e4c661d55020ed267ab31f405bb3",
    1008: "a9cd982b60330abdeba8c47e962546a15e970f551b436da46891150d376849a3",
    1009: "4b0fe25cf66ee4b1b3d47ea8dc920fd1bb276312bc92b4d94521fa0c99bb055f",
    1010: "4364a6f0938c3229fca46ab740887dbb51c9696e0169d64a8feab3401d6a595e",
    1011: "24e30b17ae5b03ae59377f2657af4ef0546ba070238f3bef81fc52614b49abe7",
    1012: "1a5623b56c83f2462861fc6845742e56403bd81bdf596a890dd870cb4d622ef4",
    1013: "c2223fe93b2bbd835d7c49844f7c95df8b6a9adef33256a7353e8aff7bd4b8db",
    1014: "91a395a021b737c50955f300341fb633d3d3e997749be7e56155ab9d27392ed4",
    1015: "ef463ed0c6db8291f2c13a33900df1806ef3f2b0fc1b2c0d3100887168f385b0",
    1016: "8d4e518cdd7947bd1adbf8c8c8e412b65b307e4ec5ba710a87bf12dbfe4df5b9",
    1017: "e0ecac7602a7cce58317e7d3ea99c3f34f63e6c2390a481a1981cce7379c1c6a",
    1018: "c3db8626d3fe9aa38e84cbb92275a555486bd103f4fceabe8dfa38314f4808f6",
    1019: "851081aa512c3825bda84f727340fc8b9840d01d612f530c2724e28aa77c3a64",
    1020: "de3bc2fe3b28b5a6deda330cc54298ba482a596c7c730e95eaa0ae1044a39795",
    1021: "bd377df7a95604118abc799279bbee67a67910a5ea087031c4913f2814c7c7f2",
    1022: "9e68adeb8bdf14bf6bf1400fe25770d581b0360b9f8d90800b16518a2044034b",
    1023: "556b3620a479eea98f855089789485894463f7a0325a0c7cface07c4908ac803",
    1024: "cb9c0e7ef1c18d1ed7ced7ff057a8eec31f5f7901444617efcc4eefd9acd859a",
    1025: "8798f2b2a45aa20a9cc1237a5a41dd46046b539acfbd5cb12e697c877855d23e",
    1026: "4d6b1e953c37ce3bbb4dd5cc19b179566cdc05fc7e7a027f255febeca99de7e6",
    1027: "2142e62ef43590ca8a18003ce9fb2d774e2e9943dd37f0121fbe05d870471e8d",
    1028: "76e7ba48fe9a5c0841b3f4211035a27a162045a8e179758e5e05d77e758834d5",
    1029: "b902de03736ee5945edea0b5790bd90c2842e0d87ccebc21e6d07c22d3419db9",
    1030: "502bb0bdc29ab7c3828d42b268da0e69c3ada9d0bea02086b40a296f9ebc0a29",
    1031: "10a842d03c3ed9606d6af9eb422372ab67fefe28d346b754766eab23bd7eefa8",
    1032: "9b69a266002b4d05b215b9f8c469fade9bc98eb79ae15a96f24900364b5d7991",
    1033: "26fda5255539de33881c0296e5de54e4c0945564fbc5d41e3fec91fb5dcc037b",
    1034: "038c52d54556fb753287f06b9e83b6ba59d714405195991f2d006b95c0a07145",
    1035: "c00c6f0b57f308f7142ba9f55594d061c653303388c79ea1997806273123399f",
    1036: "a11b130a60e2c12fb842a474fde47b6340820a34361198e20e187a3723de8605",
    1037: "dd0d7cea9f45a67be64126d0e2cdf76e872fe7d0e15458e8ed07d9373b8b2a99",
    1038: "0013668f1f414c27b9687768b5aac0cdcd9430fa609494316683d8fe6867b784",
    1039: "3bcb58e5840b83c79e2ebd4fbd529a1a96dc2d7e26c1e808dedf5d715874a830",
}


def cli_digest(tmp_path, seed: int, mutators) -> tuple[str, list, list]:
    """The case's digest, each run's exit code, and each run's logged
    anomaly total (None when it wrote no anomaly file)."""
    path = tmp_path / "t.prv"
    corpus_file(path, seed, mutators)
    h = hashlib.sha256()
    codes, totals = [], []
    for k, flags in enumerate(MODES):
        out_dir = tmp_path / f"out{k}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["analyze", str(path), "--out-dir", str(out_dir),
                         *flags])
        h.update(f"exit {code}\n".encode())
        codes.append(code)
        totals.append(None)
        for stream in (stdout, stderr):
            text = stream.getvalue().replace(str(tmp_path), "<tmp>")
            h.update(f"{len(text)}\n{text}".encode())
        files = sorted(out_dir.iterdir()) if out_dir.exists() else []
        for f in files:
            data = f.read_bytes()
            h.update(f"{f.name} {len(data)}\n".encode())
            h.update(data)
            if f.name.endswith(".anomalies.txt"):
                totals[-1] = int(data.split(b"\n", 1)[0].split()[1])
    return h.hexdigest(), codes, totals


@pytest.mark.parametrize("seed,mutators", CASES,
                         ids=[f"{s}-{'+'.join(m.__name__ for m in ms)}"
                              for s, ms in CASES])
def test_cli_outcome_pinned(tmp_path, seed, mutators):
    digest, codes, totals = cli_digest(tmp_path, seed, mutators)
    assert digest == DIGESTS[seed]
    assert (codes[1] == 5) == (codes[0] == 0 and totals[0] > 0), \
        (codes, totals)
