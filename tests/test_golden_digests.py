"""Golden digests: the exact output of a fixed grid of runs.

The determinism tests compare two runs of the same code, so they cannot see
a change that alters every run the same way.  This module pins the output
itself: for each run, the sha256 of its trace text, both metrics documents
and its stored persistent records.  A run that raises ``SimulationError`` is
pinned by the sha256 of the error text instead, so a crash that moves or
disappears is caught as well.

The literals were computed once and are never edited to follow a code
change: a refactor must reproduce them, and a deliberate behaviour change
must say which keys moved and why.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from conftest import (GOLDEN_AUTONOMOUS_SEED, SWEEP_VARIANTS,
                      VERBATIM_AUTONOMOUS_CONFIG)
from wfdsim import Simulation, SimulationError, default_scenario, parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PERSISTENT_PAIR = """\
**.host[0].wlan[0].mgmt.persistent = true
**.host[1].wlan[0].mgmt.persistent = true
"""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _result_digest(result) -> str:
    records = repr(sorted(result.persistent_records.items()))
    return _digest(result.trace_text() + result.metrics_json()
                   + result.metrics_flat() + records)


def _run(config, seed, **kwargs):
    """(digest, result): result is None when the run raised."""
    persistent_records = kwargs.pop("persistent_records", None)
    sim = Simulation(config, seed=seed, persistent_records=persistent_records)
    try:
        result = sim.run(**kwargs)
    except SimulationError as exc:
        return _digest(f"SimulationError: {exc}"), None
    return _result_digest(result), result


def _lossy(hosts: int, loss: float):
    return parse_config(f"**.medium.lossProbability = {loss}\n", host_count=hosts)


def _relay(loss: float):
    """An owner and six join-only clients, each pinging the next client
    through it, so lost pings, replies and relayed frames are all pinned."""
    lines = ["horizon = 40s", f"**.medium.lossProbability = {loss}",
             "**.host[0].wlan[0].mgmt.WiFiDirectGO = true",
             '**.host[0].wlan[0].mgmt.strGroup = "G"']
    for i in range(1, 7):
        lines += [f"**.host[{i}].wlan[0].mgmt.joinOnly = true",
                  f'**.host[{i}].wlan[0].mgmt.strGroup = "G"',
                  f'*.host[{i}].pingApp[0].destAddr = "host[{i % 6 + 1}]"',
                  f"*.host[{i}].pingApp[0].sendInterval = 100ms"]
    return parse_config("\n".join(lines) + "\n")


def compute_digests() -> dict[str, str]:
    digests = {}
    for hosts in (2, 3, 10, 20):
        for loss in (0, 0.05, 0.2):
            config = _lossy(hosts, loss)
            for seed in range(3):
                digests[f"n{hosts}-loss{loss}-seed{seed}"] = \
                    _run(config, seed)[0]
    for seed in range(8):
        digests[f"n30-seed{seed}"] = _run(default_scenario(30), seed)[0]
    autonomous = parse_config(VERBATIM_AUTONOMOUS_CONFIG)
    digests["autonomous"] = _run(autonomous, GOLDEN_AUTONOMOUS_SEED)[0]
    pair = parse_config(PERSISTENT_PAIR)
    digests["persistent-base"], base = _run(pair, 5)
    digests["persistent-rerun"] = _run(
        pair, 321, persistent_records=base.persistent_records)[0]
    digests["stop-after-discovery"] = _run(
        default_scenario(3), 4, stop_after_discovery=True)[0]
    for path in sorted(CONFIG_DIR.glob("*.ini")):
        config = parse_config(path.read_text())
        digests[f"config:{path.name}"] = _run(config, config.seed)[0]
    for loss in (0.05, 0.2):
        for seed in (1 << 16, 2 << 16):
            digests[f"relay-loss{loss}-seed{seed}"] = _run(_relay(loss), seed)[0]
    # dense lossy runs: the owner's failed PD Responses and Authentication
    # frames, including outcomes that settle after their run was replaced
    for loss in (0.2, 0.5):
        config = _lossy(40, loss)
        for s in range(1, 5):
            digests[f"n40-loss{loss}-seed{s << 16}"] = _run(config, s << 16)[0]
    # lossy persistent reformation: stored-owner restore, the fast-path join
    # and their guards under loss; a rerun of a base that stored nothing is
    # an ordinary lossy run
    for loss in (0.1, 0.2):
        config = parse_config(PERSISTENT_PAIR
                              + f"**.medium.lossProbability = {loss}\n")
        for s in range(1, 5):
            key = f"persistent-loss{loss}-seed{s << 16}"
            digests[f"{key}-base"], base = _run(config, s << 16)
            digests[f"{key}-rerun"] = _run(
                config, s << 16, persistent_records=base.persistent_records)[0]
    for name, variant in SWEEP_VARIANTS.items():
        for hosts in (3, 10):
            for loss in (0, 0.2):
                config = variant(_lossy(hosts, loss))
                for s in (1, 2):
                    digests[f"{name}-n{hosts}-loss{loss}-seed{s << 16}"] = \
                        _run(config, s << 16)[0]
    return digests


GOLDEN = {
    "n2-loss0-seed0": "c15fee04e7f26156720bda5ccdf3dc47b93101cda2f8d87d3e6c773529ac5d20",
    "n2-loss0-seed1": "bceee8217f66dc5b05679267a789b15e021fc8512d23a60512e911e591a8ff9f",
    "n2-loss0-seed2": "7477e76b3045aad15c325d74d119257413cf621f743bbc9c9340260997b99870",
    "n2-loss0.05-seed0": "69e9b539836e3d41fb3a2a57efb9c0c66a8af528402cf241a02503af64955f75",
    "n2-loss0.05-seed1": "02440523400a122bbbc36494f3706c427339ff0ed7b239eaa14ba5f40d760b9d",
    "n2-loss0.05-seed2": "33884024b53bea6b95c7ef7f98aeffe42193cd9787fb919ddc7eb844dd62a492",
    "n2-loss0.2-seed0": "5999b97e1131b172ae48b1e3450e27a11de30ecdf7cb4176820149e3beda134a",
    "n2-loss0.2-seed1": "04f857a13bc21df4eed632aafc5c1022efb1a65be88bb9c2c21865921d0ab829",
    "n2-loss0.2-seed2": "e8f4b568ee75f3ff084247d581b6727c3fc3452ef547323bfccd6a4dc702b034",
    "n3-loss0-seed0": "78030f2104b91457b6d199562babcb47c9ac8a3a2809d48be5102f7c5dd4bc47",
    "n3-loss0-seed1": "551ba3b010e7fe7c93fa4558d9e82ccc3351d422ad1857c04ee8e5efcf10f971",
    "n3-loss0-seed2": "186323627034c4cb6d5c0dd4efcbd188ddaacaf93925d9a5c38167001e4f17d7",
    "n3-loss0.05-seed0": "4245ff4031e161f53572394d4ba7f6bec49c496c6a87f874448721220e362c20",
    "n3-loss0.05-seed1": "93d05df5507a87f290acd73f90fd8889aa4478b8ccb841c780877c2c1a2f89c8",
    "n3-loss0.05-seed2": "909e15bfdf6dd3d638c2e83d7ee3c2561402d970a5f6e76e48ef6f5da037b1da",
    "n3-loss0.2-seed0": "f7b5268576eec37c0ca39a003621a0acd9bdfd8317eb1d473a9e90c36141b1d0",
    "n3-loss0.2-seed1": "38ac18360b1173ed8b0f594444c17252b5946a85c4c15690bc452e8266175baa",
    "n3-loss0.2-seed2": "f38d1cc91aac4c6363dda0a6ba9e19ec07e2301f4a5d78abe07fb99add8ecd10",
    "n10-loss0-seed0": "b192c18cd256f9eef69672ad504d8d801622003a6da74a58e80889183dfa9521",
    "n10-loss0-seed1": "0c28b7bac18ecc56bc1caf33b0c2df853d43e0ffe162f96127d7fffc8bb681d4",
    "n10-loss0-seed2": "5e974bfe056e1b0f087898475abadcceebc6bc212662742b46d033ea046e6139",
    "n10-loss0.05-seed0": "766ef129ee600072aec41f91a5cd99d84802480dd827b05b3dfcf4e7d5d85ddb",
    "n10-loss0.05-seed1": "134acc878cfd6cab2362951099fe29ebfa003485d14aefb906ce1312261e4220",
    "n10-loss0.05-seed2": "98dcdb73f5c9d8f5a4615ae19e0b7981919f4ff12df4b7376ea0fc43137fd977",
    "n10-loss0.2-seed0": "157e12522fd30761c7aabf36e364a16cc5fcb2f40f0ec2da0156aa8e56a375c6",
    "n10-loss0.2-seed1": "f35cbcc59362083b9eacc3831e5d0a52eea5acf33683dd1afaca9c2950929c77",
    "n10-loss0.2-seed2": "4bbec2fdcec9a33b14a47775c8c3622d59f1d6045fd1e7a96b7b972332651833",
    "n20-loss0-seed0": "1670493e97e105afea207e817f9b279ef398e7a796c3d24ded1781d72943e5f7",
    "n20-loss0-seed1": "97db4c4ed312aa68036fd2ebb5138e8feb25383863846099223b8456cbca2618",
    "n20-loss0-seed2": "ff332d8ca95f87394bad66aed220b8042b98e5fa29041767585892ddd120b15e",
    "n20-loss0.05-seed0": "e3addf70a6e9112d4196c78096bf3a8f4822d119ca7bdb30047e26335f7b0729",
    "n20-loss0.05-seed1": "b363e02184fd017e2cbf6fe2561cc85e752dfd6fded7b1682a351e06191e8104",
    "n20-loss0.05-seed2": "ac08eaf0a9a7cb3290fc82633d890d83f8aa05e43ba9b064cf44798988f7a8f4",
    "n20-loss0.2-seed0": "eb8b1ffb3af609a8b0c4db9165fceb6149c7b0a7ea88c318ca86d94d4b1d5be7",
    "n20-loss0.2-seed1": "05ab6f688ca2c9db9d9dc0e5f17c77b1ea177fd02b8fc2f30a6e9d67cd4c40a3",
    "n20-loss0.2-seed2": "e60fcb9b052c3fc69b37267216419681f059700e74a5f7208ee558fa1fd4e1ff",
    "n30-seed0": "2fbed7331b8339d8f66fa7a1e31540cd70eb90878155d33fcded5ab1ec774190",
    "n30-seed1": "39b62d819157329f7a79fa7330e3c234014cf819bd49622e6b241468a3f0cb90",
    "n30-seed2": "c4169b590432917bd800c25805f0ec79e5aff8566a3b21363d66fac5ac46df33",
    "n30-seed3": "71f2efdd8c67127c6379ca5e86f7d7744f87c4f6554c774180d53be8119b1f75",
    "n30-seed4": "206a8be9e7273442983ad7471b25064bb564b6f846f09a441949334123b08249",
    "n30-seed5": "49010fa76fccfeea566768e00462d322f00c949b2f357f868a80d5ae108a26fc",
    "n30-seed6": "5b898c49d3f654f49817d4fe867b61e9863d7f5b7a0558f924a81a56141087f2",
    "n30-seed7": "494ea8133fb8bc6882ef72115c2947f65c9a0467cd691f4f0aba01d49f4d2d8a",
    "autonomous": "cb5561980965a3dc73c0d0bda8ee15d2f0743ad9a42ce0672e929d3e1896c835",
    "persistent-base": "22531cdb799b455dbc84ffa2c6bd65421654ea1f31dbafebbf5f7287e6c38e1d",
    "persistent-rerun": "d6929e16dc9d3f0d89f5ec3f09b2de163783e704d1d86c9ecbfc19a99b5c5a5e",
    "stop-after-discovery": "841bb114fd8097fcdb066c5577bac502c49c6578baa6a72622b82134d6b7fd8a",
    "config:scenario1_standard.ini": "e79d0a6d9bcd09a305dd09915e95d074205b4cf2a2f722376bd8ec3dbd963dd7",
    "config:scenario2_autonomous.ini": "a6913278839c4e5dfa11f894e6617e27da184958cbc250583b6e7f38d3bee2cb",
    "config:scenario2_golden_offset.ini": "78ea96693c2e68f2eb84cbf6ca29465100efc7e397f60f6b2bdd726930b5b30c",
    "relay-loss0.05-seed65536": "46f9fb7822433ba5472a9f6d74ed8d79df2f3dc66f86b89340f38887b98e91a0",
    "relay-loss0.05-seed131072": "a9c8d32aca41abffaaa11011d66988e46a31ad5d3e9c85a7bf301e5d06ec4048",
    "relay-loss0.2-seed65536": "e0be562183a9d4b3a93632c696bbf3b21405e4836be860d3cd060f941cfae1e1",
    "relay-loss0.2-seed131072": "e391ff439e151580164f58e3f3bdbec5b2a9fa52e34ce38036c3426358185309",
    "n40-loss0.2-seed65536": "f6e7957145f1bd50dc8334a8a798e09514fcd43302c67a56b5b2fd884dfd9b53",
    "n40-loss0.2-seed131072": "2816b8259c6cbfe94a5bdf88965b8d6d37e954ca56dc6a7276ad435f520f990f",
    "n40-loss0.2-seed196608": "1a2ec61a4df43edf102906ba32f252f9ac1c54657f420a9a4041b11f73fb4dcf",
    "n40-loss0.2-seed262144": "e3743765fc185f8da581eff030359279780e83fa3e44c7f63e1dd363b69d6060",
    "n40-loss0.5-seed65536": "ac2878c9db6167812d7431889841684c645eb17ad96a6f9cd3717997c81888d1",
    "n40-loss0.5-seed131072": "70428eba1a40e01aa026f98672ceb0c1484e5eac9194fcf1edbf45f41f626432",
    "n40-loss0.5-seed196608": "193b0ae1f6e8115ea755562790debefbcff3aa5bd15c5b1d96197db10086b917",
    "n40-loss0.5-seed262144": "81473683a89fd21bb536c23b21edb4820bc70b2e9b19daf5fee6937a9e898acb",
    "persistent-loss0.1-seed65536-base": "12b407ca6f4ef651210126f542100a255ee9957da748b63e09534fa4b55e7063",
    "persistent-loss0.1-seed65536-rerun": "9b2875c65fb515cf0800ec8e7d9ed5b194c6e47be72f680418f629a7249de229",
    "persistent-loss0.1-seed131072-base": "f07584458c188a5e8490dd98ad2772c2f883a8b05974ae54bac080933195df3f",
    "persistent-loss0.1-seed131072-rerun": "0267cc2ea602a6b9f8035137a7e2ffa00f6a13da03515ba77afbb5b11548e63f",
    "persistent-loss0.1-seed196608-base": "32849682d45b82517f47b3dda01a58c37f6665685653646ca35550b7d31fa806",
    "persistent-loss0.1-seed196608-rerun": "5a1e65ae8791ef1164af93fbec1a336ed6a37c02a7e04418c214efa0bb022082",
    "persistent-loss0.1-seed262144-base": "42dfafe8c0fce8fc3202dd8f651ec367d2581f53945b8c5aaf11086ed28575fb",
    "persistent-loss0.1-seed262144-rerun": "042f03d7e07dec6ed392b1437d814c12440b2fb73deec443d15a09bdc23b40d0",
    "persistent-loss0.2-seed65536-base": "5f755055ba63bf629420794b6d12c05ca9b4c7a281f8c5f1a645f8526a526fdb",
    "persistent-loss0.2-seed65536-rerun": "4e8a30b5f61d29cf88b9b241898b25d14032d4e5199205f925651ee59da0bf7c",
    "persistent-loss0.2-seed131072-base": "de236af04275b87f8ea95ee498b2f32a6ca00b7a1ee894097ed61ec5ea0411da",
    "persistent-loss0.2-seed131072-rerun": "c126c5c2532800b5e3f9e32de90452545d38025531f679cf9413527a958c8017",
    "persistent-loss0.2-seed196608-base": "39fe0b77b388c627cd880fc3cb48ea144f95046036df69136ee4eb0dea286a9f",
    "persistent-loss0.2-seed196608-rerun": "c5dfc15046d8f1df685c0f62bf4d300ff3f9baaf7cefda1a8d7eb37de5969938",
    "persistent-loss0.2-seed262144-base": "d7447ae389d97a6c57c3abd1fbcf1b0990489658951fc1f88bc6ee65818e7fd6",
    "persistent-loss0.2-seed262144-rerun": "0e847778dd4c6d521678964eddd472d94cd07f8b680e56caeac9f1a6d6723b54",
    "scan0-n3-loss0-seed65536": "6f502685ce3ccf0a333b2a1fbd20936027722504956cca20dee26600bf11f6c9",
    "scan0-n3-loss0-seed131072": "cb8e0681759fe5c7d60dec0eb09cf663943e30f985e0f3b85f99d972b9942bfa",
    "scan0-n3-loss0.2-seed65536": "ac095c0c041389d2dc4969f07c9ef95820746b378520755c719d6452ee57c845",
    "scan0-n3-loss0.2-seed131072": "5244089e930fcc406f0c8fefa2fa03a2e2c216cfe51710e05c469364aa3b6887",
    "scan0-n10-loss0-seed65536": "3f131220ba75b4dc8d1e1dc3313a97d9c1aa68b8d170b1337559a161ea9c8847",
    "scan0-n10-loss0-seed131072": "d7963a61c9a160103fc5d33af4aa3e037f5c1044d79e008b2a62ca24b2226fd2",
    "scan0-n10-loss0.2-seed65536": "e348c17c9f2a59389ede07feddf9d44bb54d03287c2569f06f73766326be7387",
    "scan0-n10-loss0.2-seed131072": "5c5af877247fa2ea931b588fa9164f5442933d3c916fce08f960788bec5fa137",
    "channels1-n3-loss0-seed65536": "f3e716dae3738b1e558386b1eba495bbc1271c7d0d379bf248b5916286f430cc",
    "channels1-n3-loss0-seed131072": "896c6a61a8341c7c698de03560efdc50f8176bf8307725c7900af53876344aae",
    "channels1-n3-loss0.2-seed65536": "e6a43fe0373c546d528f9cfc8ec9aa2d5d039ed5686ac7db0c4e70d59804ee8f",
    "channels1-n3-loss0.2-seed131072": "952b68e10d753b7659194d002bdb631cbd592cac980551c3d5067581dddb2dd8",
    "channels1-n10-loss0-seed65536": "62ba6605361b536be882d58886ab288a29340e4021d832357e7c7fe963673e7a",
    "channels1-n10-loss0-seed131072": "314d828a3a8c0eb5e562503888f5bb5fd325f00678a5793bb1268835de94a375",
    "channels1-n10-loss0.2-seed65536": "bbaf8f7f7bba3d9c7a6737a1b75b269a8e965b79a5568a98c0d6e46b78c86e18",
    "channels1-n10-loss0.2-seed131072": "b42ef7ce2ccad5261d3c35973ecca46336526b1007d0f9133e2663215cc6cf09",
    "social-n3-loss0-seed65536": "dd40db5f94472a77284aa4409a3fe0e70af47d886264366831b51233ddbd373e",
    "social-n3-loss0-seed131072": "cdd412f602d5cabbb8f37f13ac48976589b72b15ea54d4867c5190d742f4179e",
    "social-n3-loss0.2-seed65536": "dbdb09c2ec2c76fd3ecbd432e235afd5d6607d934468a4db688b5fb870d892ce",
    "social-n3-loss0.2-seed131072": "adb797ea9e03a3400ac7576262001dad6994a05855e18486dc93f30dcaa0ce02",
    "social-n10-loss0-seed65536": "5586bad41e5f62aba565e8320d1d19f23cbdd833b6baa712ef017a20e338a727",
    "social-n10-loss0-seed131072": "36c10095beae9027f2cbca1e57aacf6bfab944bb6f8bc9242b24d068771d7ef9",
    "social-n10-loss0.2-seed65536": "cead69721e690215e10c2ab110e481c35a3470ac80b65f0c481fcbaa375fed6c",
    "social-n10-loss0.2-seed131072": "59a57d14082dbb45ae705fa7b33c6ce9670906028a66f4414a0aa5f05884b6dd",
}


def test_golden_digests():
    digests = compute_digests()
    assert sorted(digests) == sorted(GOLDEN)
    mismatches = {key: digest for key, digest in digests.items()
                  if digest != GOLDEN[key]}
    assert not mismatches, "outputs changed; new digests:\n" + "\n".join(
        f"  {key!r}: {digest!r}" for key, digest in mismatches.items())
