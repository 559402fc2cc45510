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
    "n2-loss0.05-seed0": "b9d329df2fcaa74e69f1fbb6001294f583ed9844ca03fde8f0a5e08b635de8e1",
    "n2-loss0.05-seed1": "02440523400a122bbbc36494f3706c427339ff0ed7b239eaa14ba5f40d760b9d",
    "n2-loss0.05-seed2": "cbbc9183e32f5401993532976278a1383a1ce0a0b1a2cdc704b199e59f5a0a1e",
    "n2-loss0.2-seed0": "ca0cf8a2c100bf9fe73123c6d3b63d4e5231f89722c74589401c70d4b6a7b5e2",
    "n2-loss0.2-seed1": "dcbeb4f4402ee187a33cade6e24d60bf624d71a267f1debddcd9ac496f9fb43e",
    "n2-loss0.2-seed2": "1eed0e2b917bf0370413a895b4aeea0210db560801e3feea03fdd42987b01c91",
    "n3-loss0-seed0": "78030f2104b91457b6d199562babcb47c9ac8a3a2809d48be5102f7c5dd4bc47",
    "n3-loss0-seed1": "551ba3b010e7fe7c93fa4558d9e82ccc3351d422ad1857c04ee8e5efcf10f971",
    "n3-loss0-seed2": "186323627034c4cb6d5c0dd4efcbd188ddaacaf93925d9a5c38167001e4f17d7",
    "n3-loss0.05-seed0": "b24bb53b9cc6b7b01ea67a8865eba8e4848c608c76f8259599a712453f66cccb",
    "n3-loss0.05-seed1": "7b56b36ddbbe58935a5635ef44a2fb50a8a5e126c3f00c40a34bd02c32087afd",
    "n3-loss0.05-seed2": "f1a082a7afd4e6f759a34638d36746c17aeb68f60790effd9582ea6246909cc7",
    "n3-loss0.2-seed0": "2a0a2a7a476ea83f68f854b02f4ee9df51985302d042a9083059c43a86dd8996",
    "n3-loss0.2-seed1": "ed104d0403fd144512d8a2ded0f8a7abd3bae3aa25680468e8e2a7d1b7aa5740",
    "n3-loss0.2-seed2": "e11ac2587d45ecbe72f13ed4144fef652c496c7eafcd161978940b790db6b466",
    "n10-loss0-seed0": "b192c18cd256f9eef69672ad504d8d801622003a6da74a58e80889183dfa9521",
    "n10-loss0-seed1": "0c28b7bac18ecc56bc1caf33b0c2df853d43e0ffe162f96127d7fffc8bb681d4",
    "n10-loss0-seed2": "5e974bfe056e1b0f087898475abadcceebc6bc212662742b46d033ea046e6139",
    "n10-loss0.05-seed0": "94f3efc2b28e1fa2ed719aeb17b8e740920d92b83be4c835081d9aa5773725f9",
    "n10-loss0.05-seed1": "5938a90976471de26fc4736efd0086d18056b5d20961762e09592c96698421ca",
    "n10-loss0.05-seed2": "3819a1af1c13ddc52b4e3a8bab15066d50304bb1498f783c48b427334c040d8c",
    "n10-loss0.2-seed0": "a81356fbd8997b5ce4e7bb5db90e3663856b7d80e3cb3411724d290a6d87cb49",
    "n10-loss0.2-seed1": "293f279339b61deed200f604b0f09895c49359ef6ee5df0f96b2753a10417efd",
    "n10-loss0.2-seed2": "9f1d21157938f1ed50a9d8b0032bf2b57c318f0d42671e681cec2482334e8af8",
    "n20-loss0-seed0": "1670493e97e105afea207e817f9b279ef398e7a796c3d24ded1781d72943e5f7",
    "n20-loss0-seed1": "97db4c4ed312aa68036fd2ebb5138e8feb25383863846099223b8456cbca2618",
    "n20-loss0-seed2": "ff332d8ca95f87394bad66aed220b8042b98e5fa29041767585892ddd120b15e",
    "n20-loss0.05-seed0": "e230d39606270346c52bf178c69fa3bdf5a21cfb79fc9006f5e0324714ff555e",
    "n20-loss0.05-seed1": "6f4235bae4047344669181b5447ee8d117553b4f5f5c9a42cebbc4dc74e6e7df",
    "n20-loss0.05-seed2": "537b4da325743cfa2339f6844933c4a703599c6544510be3b71c26796c8e87f0",
    "n20-loss0.2-seed0": "ef8e4126d61650a2e34fea6aa7b0a5fd8f77775400ce8b4f98c8e03ff80aec0f",
    "n20-loss0.2-seed1": "9a36d9ad52d710c0430f7ebdf43ddb63c27e6ff99a3492849776c24fca976288",
    "n20-loss0.2-seed2": "8deede3d705a04a693d15da6f51cfbba01a7aa656e1fce1e14a77a290bcfd09f",
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
    "relay-loss0.05-seed65536": "86cd7e103e20ff2386b06ce8ab7516a720694c4387149bed81db676738642e97",
    "relay-loss0.05-seed131072": "a9c8d32aca41abffaaa11011d66988e46a31ad5d3e9c85a7bf301e5d06ec4048",
    "relay-loss0.2-seed65536": "9a7a5de2cd2bd63435cb2273d9a01e188aecd024c7d8f3ef92b16ecf30a8c0b5",
    "relay-loss0.2-seed131072": "56add406a7872b0e4d5bfac5dd2913a504a2a779c18156d094a56d6a75dda49d",
    "n40-loss0.2-seed65536": "779c8e2b788c3ee85eda35ae76d3226ba690d52fed3e31eb60e1f0e1f730f45d",
    "n40-loss0.2-seed131072": "7c1c893379a1ffc172984a5dbfcad86282982b78fb7e0d9dfa0faa3303c41aa9",
    "n40-loss0.2-seed196608": "0ddedd9efeee23fc9a25f1b45616944a871828e0a2919f9a8110840ca6a2831b",
    "n40-loss0.2-seed262144": "7aadde9a5fc3093ea284b3b267f2aaaff3a8052ec0f9dda6752f516e0ececd76",
    "n40-loss0.5-seed65536": "9959389f983bbf18993f602b95a057130457ec327d18ae3448a22f8b8e1478a2",
    "n40-loss0.5-seed131072": "1771f3140ed6c92dc68e9095a9212591f4232e73c17152ad0d288bdfee0a547b",
    "n40-loss0.5-seed196608": "6c18adebe0b0a6ed1f868c37fd87434ad78512d5d29287f674109b2d23529b4e",
    "n40-loss0.5-seed262144": "db51c237bce372764958621d556cc0eae20bedf99243165fa687badcbd8cfa80",
    "persistent-loss0.1-seed65536-base": "d02484afdce4b07ec3f920843ffc1ce0640ab0f816d452a4d9b141ab7d7d3674",
    "persistent-loss0.1-seed65536-rerun": "9b2875c65fb515cf0800ec8e7d9ed5b194c6e47be72f680418f629a7249de229",
    "persistent-loss0.1-seed131072-base": "8813b66a8e42c61a9c7d0585c958215039f5b4d4fe7ac679454535a4c943e550",
    "persistent-loss0.1-seed131072-rerun": "8813b66a8e42c61a9c7d0585c958215039f5b4d4fe7ac679454535a4c943e550",
    "persistent-loss0.1-seed196608-base": "989dea171c50c9db85b40b650289484f4cbd4eb0ea1111579e1986a3f796b06c",
    "persistent-loss0.1-seed196608-rerun": "0d988544a3f21fa8a2ae92d71afef141543f7e53dcdb9025aed1b971b8ce25b5",
    "persistent-loss0.1-seed262144-base": "6ba4040d7e517f23f3a47897b9fc07522afe9f9eaab22a1d1dd0554f2d03fbbc",
    "persistent-loss0.1-seed262144-rerun": "89c25f1607c054037f0630d69b2d229b97d5333a699be201e6d70b1ea0a262c6",
    "persistent-loss0.2-seed65536-base": "a9af918024a26178e8e16557cb237426a08c77b4d185c6029c728468b13f43b4",
    "persistent-loss0.2-seed65536-rerun": "a9af918024a26178e8e16557cb237426a08c77b4d185c6029c728468b13f43b4",
    "persistent-loss0.2-seed131072-base": "0b6c7e7de51fbb03c45c3983a729e80e0f70588de5ba1de6d976a2f88453e7c6",
    "persistent-loss0.2-seed131072-rerun": "0b6c7e7de51fbb03c45c3983a729e80e0f70588de5ba1de6d976a2f88453e7c6",
    "persistent-loss0.2-seed196608-base": "71c366348c2e786e4119c6bf0bec04e24d67554f76e0dc80a0d2c44a39de81f4",
    "persistent-loss0.2-seed196608-rerun": "485b44210d099451bd1cd7490bfa391e2cb4a662e02753c1a9478014196675d5",
    "persistent-loss0.2-seed262144-base": "a41bc3936093f5522bb3fea452f3c64c46eba92d6ed1cb2f528b35f3003c37ab",
    "persistent-loss0.2-seed262144-rerun": "a41bc3936093f5522bb3fea452f3c64c46eba92d6ed1cb2f528b35f3003c37ab",
    "scan0-n3-loss0-seed65536": "6f502685ce3ccf0a333b2a1fbd20936027722504956cca20dee26600bf11f6c9",
    "scan0-n3-loss0-seed131072": "cb8e0681759fe5c7d60dec0eb09cf663943e30f985e0f3b85f99d972b9942bfa",
    "scan0-n3-loss0.2-seed65536": "757c18eeadc996e0bb21244ea4c8e297b2dc0edd23caf2cb0ed418b9ac6031f9",
    "scan0-n3-loss0.2-seed131072": "b8968f3dbef4d94e057839d093fdf16bdd6646d1716caf1e66c8bdd822382ba4",
    "scan0-n10-loss0-seed65536": "3f131220ba75b4dc8d1e1dc3313a97d9c1aa68b8d170b1337559a161ea9c8847",
    "scan0-n10-loss0-seed131072": "d7963a61c9a160103fc5d33af4aa3e037f5c1044d79e008b2a62ca24b2226fd2",
    "scan0-n10-loss0.2-seed65536": "504d54083ff76c1d2615a857088d4a772532a129b7489d1e41d83d360a3381cc",
    "scan0-n10-loss0.2-seed131072": "668b57d3b3c496b86ebf1578684c9256773077a042f9a349c0ee408b25076c51",
    "channels1-n3-loss0-seed65536": "f3e716dae3738b1e558386b1eba495bbc1271c7d0d379bf248b5916286f430cc",
    "channels1-n3-loss0-seed131072": "896c6a61a8341c7c698de03560efdc50f8176bf8307725c7900af53876344aae",
    "channels1-n3-loss0.2-seed65536": "02210f7af2c927343ab617b8610706b092d34da0dfe9373c88f8d737dad6cff5",
    "channels1-n3-loss0.2-seed131072": "26a92912de4f9ba9d86a06a63aefb0c89e7ca7890fec7ccabe4d20b89326a5c9",
    "channels1-n10-loss0-seed65536": "62ba6605361b536be882d58886ab288a29340e4021d832357e7c7fe963673e7a",
    "channels1-n10-loss0-seed131072": "314d828a3a8c0eb5e562503888f5bb5fd325f00678a5793bb1268835de94a375",
    "channels1-n10-loss0.2-seed65536": "7d17a9074061c0714bdbad8260a91efd5349bbbc1f2ba0c53a11a3d25ff58adc",
    "channels1-n10-loss0.2-seed131072": "859e6e939b946096ae0d550cca59b852755908fa6b8ee8fa9e6e953f7fc357db",
    "social-n3-loss0-seed65536": "dd40db5f94472a77284aa4409a3fe0e70af47d886264366831b51233ddbd373e",
    "social-n3-loss0-seed131072": "cdd412f602d5cabbb8f37f13ac48976589b72b15ea54d4867c5190d742f4179e",
    "social-n3-loss0.2-seed65536": "89eab3879e569e16af0dc7cda06f0ea466981912fa8373944b1b17d9131f0d01",
    "social-n3-loss0.2-seed131072": "48914626aec5a90d726db1b3871f1f9971b162f4d3207adb2410832789fa1345",
    "social-n10-loss0-seed65536": "5586bad41e5f62aba565e8320d1d19f23cbdd833b6baa712ef017a20e338a727",
    "social-n10-loss0-seed131072": "36c10095beae9027f2cbca1e57aacf6bfab944bb6f8bc9242b24d068771d7ef9",
    "social-n10-loss0.2-seed65536": "565b43191ae2f6a8588d1eaf7962b8340d4f71cfa70189e0cf6276d3ce782256",
    "social-n10-loss0.2-seed131072": "22bd2689fef75004f2112d8013877267f06d8c524b49b2ca381615692c03b5fa",
}


def test_golden_digests():
    digests = compute_digests()
    assert sorted(digests) == sorted(GOLDEN)
    mismatches = {key: digest for key, digest in digests.items()
                  if digest != GOLDEN[key]}
    assert not mismatches, "outputs changed; new digests:\n" + "\n".join(
        f"  {key!r}: {digest!r}" for key, digest in mismatches.items())
