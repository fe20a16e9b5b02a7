"""Frozen outputs: the face-poset DOT, the moment-graph DOT and the face
facts the DOT leaves out, byte for byte, and each polytope's faces and
facet vertex sets.

Each case's first two SHA-256 digests were recorded from the code before
the orbit space and the moment graph were glued by one rule, the third
from the code before the face poset was glued in one pass; a refusal is
recorded by its exception class name.  The polytope digests and the
digest of the refusal texts were recorded from the code before polytope
facts were read off the vertex-facet incidence.  The fixed-point and
moment-graph edge digests were recorded from the code before the vertex
scan solved only independent facet subsets and fixed points and chains
were keyed by vertex number.  A change that keeps behaviour keeps every
digest.
"""

import hashlib
import random

import pytest

from helpers import (
    box_even_cycle_template,
    box_path_template,
    dropped_halfspace_inputs,
    hexagon_cycle_template,
    hexagon_tree_template,
    twisted_box_halfspaces,
)
from toric_origami import DelzantPolytope, load_corpus
from toric_origami.exceptions import OrigamiError
from toric_origami.fileformat import corpus_names, face_poset_dot
from toric_origami.gkm import export_dot, fixed_points, moment_graph
from toric_origami.orbit_space import face_poset


def _cases():
    """(name, template builder): the corpus, seeded box paths and hexagon
    trees, two hexagon cycles and the box 4-cycle."""
    cases = [(f"corpus:{name}", lambda name=name: load_corpus(name)) for name in corpus_names()]
    cases += [
        (f"box:{seed}", lambda seed=seed: box_path_template(random.Random(seed)))
        for seed in range(12)
    ]
    cases += [
        (f"box:n5:{seed}", lambda seed=seed: box_path_template(random.Random(seed), n=5, length=3))
        for seed in range(2)
    ]
    cases += [
        (f"hex:{seed}", lambda seed=seed: hexagon_tree_template(random.Random(seed), 2 + 3 * seed))
        for seed in range(8)
    ]
    cases += [(f"cycle:{k}", lambda k=k: hexagon_cycle_template(k)) for k in (3, 4)]
    cases.append(("box4cycle", box_even_cycle_template))
    return cases


def _digest(render):
    try:
        text = render()
    except OrigamiError as exc:
        return type(exc).__name__
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _face_facts(t):
    """Per face in poset order: dimension, sorted `defining`, subgraph vertices and edges."""
    return "\n".join(
        repr((f.dimension, sorted(f.defining), f.subgraph.vertices, f.subgraph.edges))
        for f in face_poset(t)
    )


def outputs(t):
    """(face-poset DOT digest, moment-graph DOT digest or refusal, face-facts digest)."""
    return (
        _digest(lambda: face_poset_dot(t)),
        _digest(lambda: export_dot(moment_graph(t))),
        _digest(lambda: _face_facts(t)),
    )


FROZEN = {
    "corpus:chain3": (
        "ecc6261d7a1926a7929e969ae5298da9132b8159b96673e73620be825ec09c5d",
        "4e6a71825fa267c7920c6d520c152b85855831d1ed4856ad58da31179cd52b61",
        "20cda14f7619fbe4bd8a6d30ea981ec85d5475af93d87b4a12245b63364e9a2e",
    ),
    "corpus:cp2": (
        "7f7171447efea7e032839e60dcd3bb96cafaff7ba360568529a8cd8ed9bfb92c",
        "3468ee5eeeb85e459fa5bd3582cd7e649e8a9710962d4666182c7b6edb5742bb",
        "8975f806ad4e8b38722fea008d4b363ffcdbb3545610146b9430a760f750a6c9",
    ),
    "corpus:hirzebruch": (
        "ef7e5403b7a65ef8bd5aae588f78ccaf0cf6e2edef0927f4685ccb6c1ab71d8d",
        "dbb0577b6e78cecae4f44f1e271e474b1438e40eae75fd15cb300b2fdecc3cbb",
        "35477a6051a067ab551d0a377b47192b797ad9692eb002afc04f738527ed21fa",
    ),
    "corpus:oddcycle3": (
        "56c6fea1c0304a127eddd9fc0391e43798e533f2b157d96281ab73e7dc08c351",
        "Unsupported",
        "e998d007270e2a3497cf8527457733e901c764fe2c06c81a211efba3f8fa5b8f",
    ),
    "corpus:rp2": (
        "e7bc8f0bfa5919d006b91870191cf02a050acc7a24aea24430343323cabacaff",
        "Unsupported",
        "4dc3d6ffb46582ea124cf0ac45589f0d33d6c48e2a61ed9a428276d002df6700",
    ),
    "corpus:s2": (
        "59c8f7e67e6c577823b14f7c971a00f6507319ec73acd7fd82adc310417ab794",
        "c3a0f6376b345d9c5ea714b6e580aad2ff2fc734e9ca73a8ab429a3fd7bcfe15",
        "b8387da27cafefda09bacc5d04b91f8ccd5df8035ac1061e3e0be5d9bcfcce7f",
    ),
    "corpus:s4": (
        "383a8fe15bf4c8e7ba2e64e6b20a17aff095f249642a7e9ed75081de51b38de1",
        "f7a45d4ef6ce705a95f3c690c93a28737f6bc982b1ceb7184b8ffa0ddc35f0c0",
        "4fe8058178f48bc270f52c8653fe1bf13e3d044af17b6ce0dc8a28aeda7435b0",
    ),
    "corpus:s6": (
        "5b17f3e5ca12133e0be631048b3daa678585d90f1ffeafdcb81f8db3a3dbb13d",
        "c12a5e5db704d3681f86612cf29e43d2936e12eccd545d5592ced339ae668895",
        "3bf6109858559cf382feee8d78090d59f4f908642767ed8cd567dd48c9547b3e",
    ),
    "corpus:torus": (
        "08069cf107c331d9d67e142454f7e63ea4a9bf2dc996e8e8963876360280c971",
        "NoFixedPoints",
        "b8965ebe68e53ec4b5eea6c7905429db2611041d601b6cb0a0d93c2991ccf591",
    ),
    "box:0": (
        "0b2f56bfbbb5a9a89cacc24e0a30114950c1573aa03d2dc7a6965f33bc9263a8",
        "6bc8c259b96fbb037ae4566bab081b3902e19df40534de01f53fe2b96547d011",
        "9fae405f56602d0049b8abee40e0361b9a8c7a89d2f0036f06a3c7e48499451c",
    ),
    "box:1": (
        "3203d84568fbc6d97f537948770e795121f1e17e5598c130124b469f62e9b435",
        "e47b5c0685994ed0f35111865ba38bef6351e63335ada3aaedcdc99161d59698",
        "906474ee82a16548c064dab3230aa04d3dd92a2b92bc1b605c871966f5aa0d1e",
    ),
    "box:2": (
        "79bef3740d7bb909552fc75bedca8b931a8e2675ff86ae13a002d11cf9ede5a4",
        "9a803688e4f84b94f79d4509f733879a6db562f67516dc064a3c21b4e81a11f0",
        "24b4374cda7cbbc4d4e5e4bfa07db5958269c4831c50f238af6efe38a9f5af20",
    ),
    "box:3": (
        "3203d84568fbc6d97f537948770e795121f1e17e5598c130124b469f62e9b435",
        "6a599ea331f04b671d8ca807ddcb600052b3241ec82c6b5e1b9ae11942be4300",
        "906474ee82a16548c064dab3230aa04d3dd92a2b92bc1b605c871966f5aa0d1e",
    ),
    "box:4": (
        "74f93b91d5d0ae4c315ae47c583a2f73c745c1d76e3aaa435496ca46448ee584",
        "efb4b5a3accad277d99c038c68fb905dae45ff6ae56dca3e7fa0e01a2d0447ab",
        "8edd7d8a1f9e4d33f9ea1cccfa12e2ba28de7852b35c9f427aa27aea94c91e3c",
    ),
    "box:5": (
        "b4426609972ac2cf30025283843c7b2a576f0c4a59c3e5bce6a846a36bf224d5",
        "0f91bb46587359b594a0f662fbe0ce003d51a5a45f569596761f3cf54e26da09",
        "b97fff56afc518c64210248fc94a1bccfc05e643fd7b4c30399ff33970e3541d",
    ),
    "box:6": (
        "79e6403f795ce9cc3cf57dff5d0aa34772e0ea378329a3cb622336e4c26fb05a",
        "c0435b21d363e15b217a5d3ed0dda0e5f2a6e89ba2ee8e1b249fced4954e32ed",
        "1d265372cf93412f7d14e1a2dfbedbc4d5742a471ea3667ed48b70a01886cb97",
    ),
    "box:7": (
        "b586c36de3664baf10577ab4f8cabfd05445241e27f2e9825481955f6ecde48d",
        "a15bdc1aa8cb6a0b13b52e4d6a4856a08e5f4885a9e47ac00e923602350c7f81",
        "c51e3f50a9cd28a1c1948cb73f679bfe34f6f1d11c6cb85ea023addfd0d09e88",
    ),
    "box:8": (
        "74f93b91d5d0ae4c315ae47c583a2f73c745c1d76e3aaa435496ca46448ee584",
        "6f2fafc3974531fc0ee82b962977c5ab914b75a999a6aa2a24f82b1acc4bf805",
        "8edd7d8a1f9e4d33f9ea1cccfa12e2ba28de7852b35c9f427aa27aea94c91e3c",
    ),
    "box:9": (
        "b1fa452e2ae3e989f88578960f2dbf9f1755bf987e9f4e526e9803a1f2ab6976",
        "31236fae9e817c582a814b54aa4fe42e97e7990941c352cf72f0829d911edcb0",
        "2569a5fc7bbf56632b241516523d3f6a2756da32a0e246a430136e69cf730487",
    ),
    "box:10": (
        "79e6403f795ce9cc3cf57dff5d0aa34772e0ea378329a3cb622336e4c26fb05a",
        "63b4dcfa66b4a4223dfd3af8ae3999f816383ddd0a443c67a58eb32ab0feaf28",
        "d8f4011a3f4c483763b307db2ef28f3f13d44a34aaca6244df4787a486d4b671",
    ),
    "box:11": (
        "b1fa452e2ae3e989f88578960f2dbf9f1755bf987e9f4e526e9803a1f2ab6976",
        "2dc95f3a72b6d4b88209ab06ebe9709d8ef1fab3d4fdf64a1e6985b73d0e18f1",
        "de185e690174570b293e64c2334228d74dad9d037368756f55235058400748d1",
    ),
    "box:n5:0": (
        "6bff39c700547cf3aef299e6d724aabab47868315dfe5c5ed842fa2e678c3aa9",
        "9116cc7a06e803d2dd78fb89b17a8c8298d7df85d9aec798b6adf79a65dbc477",
        "6d4bf79ecf88a4c240fa43c0e2e8e5ed9becf52eabfe9758b9cb8ed299cdaa5c",
    ),
    "box:n5:1": (
        "04e4a667941ce176269a3a9177e4a71f9e3ba9de60e2230468a9ca640972544c",
        "4ff6b0c51837dbf1ffcf8627f1f022080362c2022e7f27cce618d3608017aed4",
        "5018aeb813f91aa2df790f253fda58f645edf0f288c7396fbe76aee7be5722ae",
    ),
    "hex:0": (
        "5af0dc3b5ad7009359dd5081effe0169e91e6cb0a1820949d4486fd37649dc78",
        "3b224398f0635f704f039340353b9de87793a5d84f1969967fc04e45242e05e5",
        "5e81cf5de0dd6ba3ffb208261373f2a1a93507549bacd005f4708b4b7d3d4bf9",
    ),
    "hex:1": (
        "6abd13fbca8ae778e57c0bc246d04c53677ea967bfa7e681e5c295c34cfa5252",
        "9d710ca581cf26e8c64f43445e4dfabb72f8a0ae064c8741f123ca79c89a8f47",
        "8494de2f77ccffe0b4f840ad276637eb84b6a909aadbd737d0470b0e0727edd6",
    ),
    "hex:2": (
        "f1c7e38f7a62f1d694556686278f7d1ea2756485be4a3550f2635231cf4b5e2f",
        "55999c3a5168a6391db9edeecdd75065d4b549095b1456a190e9a677d0c05c84",
        "dfb11326235a5cd4b10d777618cf48466ba1ca5880b1527f12731b078e2f9e25",
    ),
    "hex:3": (
        "d790a94c94a4dcdf0d473ac8ad0db17669727f6039f76ad81923191da4bd9c97",
        "93eb2c6bce3f48c288cf608afc030cd5ccdb1a5fee78903e289b87e33b90d4b1",
        "9f71040fa991ebc42b5f7d85b32af9950ab288e93ae0ea7578007e3b3f704238",
    ),
    "hex:4": (
        "68927463e6f69b02fa4871be1b2ed49afd9a96b20a7de58a06043b36da062077",
        "993267163ce7c2938af374c02f127466a6d436d477ad795f29633d46cbad05b2",
        "238655587f5585effefc132ed859569d8a3361f2b4d0785236809d1898f3b44a",
    ),
    "hex:5": (
        "0773d277ae652b2bf71c71cf0b3aef9722554b5f449d7da9287ec0fb3261eef6",
        "5f1032b707fa56173384d584b59bf0abaaaec406d82b7c093ac578d6eee7957a",
        "19f1d49f35d06a116ea9392aed29da94063769db6574eeda8b35f908088ccee2",
    ),
    "hex:6": (
        "7a6940d42cc8f8d2be3432bcfdac1b61c7ad65c7c0159a3a8b03b5779d0deb23",
        "aca7e7b90353a0cf5962434d30daf0f77a6fd915f643bc28fd69aff3bd46b505",
        "36f1bf161d619c15f84464ceb9b4172de707c1837654283f2c5601c34c924493",
    ),
    "hex:7": (
        "777f4183d127c544f19278a65ad0188568e592c83c734197de54a94cb7d9e1b2",
        "d3e7b7b39575b67cebd5197876b51f1531b364e7bd4ae69dd40c1f81f9a7652c",
        "af46c21dd58527e2926444e0cbc8d2f1848ac750696553eeabdcfdd96759b1f5",
    ),
    "cycle:3": (
        "3cb01311258ecc5e144c58e85e06e008129874fe1c0316a3b340597c2da855b5",
        "Unsupported",
        "b37441eeb73095af4863beb9d6149e158000954511a8c654e8a7f08ad0f56f0a",
    ),
    "cycle:4": (
        "7734a53aed73be1fb6e3ecf21c1bb5680171d2d9ee4f9419f036c06b7b8fb21e",
        "Unsupported",
        "b4608794898414c5ae2c6fc3bd340aba3ad03e0d805a267e9c7f33ee61a2a6e9",
    ),
    "box4cycle": (
        "df56c62e2b36e79210301e029664b27c4cb5eb6e545810e6eada54c9bba7bb08",
        "NoFixedPoints",
        "c7325bd9487238ac046eccf999f27de30f3c789e57f5c037e8cf1e3d11775ac7",
    ),
}


CASES = _cases()


@pytest.mark.parametrize("name, build", CASES, ids=[name for name, _ in CASES])
def test_outputs_are_frozen(name, build):
    assert outputs(build()) == FROZEN[name]


def _polytope_facts(polytopes):
    """Per polytope: its faces as (dim, sorted active, vertices) in `faces()`
    order, then each facet's sorted vertex set in halfspace order."""
    lines = []
    for p in polytopes:
        lines += [repr((f.dim, sorted(f.active), f.vertices)) for f in p.faces()]
        lines.append(repr([sorted(fs) for fs in p.facet_vertex_sets]))
    return "\n".join(lines)


def _refusal_texts():
    """Each dropped-halfspace input's refusal, one "label: class: text" line each."""
    lines = []
    for label, n, halves in dropped_halfspace_inputs(range(6)):
        try:
            DelzantPolytope(n, halves)
            lines.append(f"{label}: built")
        except OrigamiError as exc:
            lines.append(f"{label}: {type(exc).__name__}: {exc}")
    return "\n".join(lines)


POLYTOPE_CASES = [
    (name, lambda build=build: build().distinct_polytopes()) for name, build in CASES
] + [
    (
        f"twisted-boxes:n{n}",
        lambda n=n: [
            DelzantPolytope(n, twisted_box_halfspaces(random.Random(100 * n + seed), n))
            for seed in range(6)
        ],
    )
    for n in range(5)
]

POLYTOPE_FROZEN = {
    "corpus:chain3": "bf467c1c2b9e08045e12622abf5f1d73f66842a28098ce801e1dd7461dbf60aa",
    "corpus:cp2": "47c4570aabdee80f47f9316b9f0086a30b39a4de6614ca6e547fdcde70ef497f",
    "corpus:hirzebruch": "e23cee8f4b3436bdfad33a3c3387d9752197134275763974ca2a1ee5eeba69d7",
    "corpus:oddcycle3": "2ff47346bd6331ed74369c506b381522e9de427367b2587d55bc71127bb31c21",
    "corpus:rp2": "b2930ce442f4e811ace3fc45b75adba74156a91e079ca944fcb6ea28dccd9e45",
    "corpus:s2": "b2930ce442f4e811ace3fc45b75adba74156a91e079ca944fcb6ea28dccd9e45",
    "corpus:s4": "47c4570aabdee80f47f9316b9f0086a30b39a4de6614ca6e547fdcde70ef497f",
    "corpus:s6": "d26789665c160c4e1cd9a452e84a3c34255a1da33e5eeb4b02d53b2e628551a3",
    "corpus:torus": "b2930ce442f4e811ace3fc45b75adba74156a91e079ca944fcb6ea28dccd9e45",
    "box:0": "21b4b10d816945067c645836119f97acbb20fd949b3a7b2fe4eb56f50fb564ff",
    "box:1": "1d002b3d368e9b8b1c43dfd6682d5045fc11d7719559eb710c8e6e58605715d0",
    "box:2": "52990218645ee2bb76b0cf5b3db3d89dc7c3d129dd2b68f7cade20cc052f8a54",
    "box:3": "a1ad9b31c705722e36f6babe8b1e717722b4116918a857a9e2e92d7a39eb5226",
    "box:4": "fd07dd4e39b59c5a088a1547f49fe08d978458a1695cca6b14e467f5dbbc9ac6",
    "box:5": "680154ff369ce5cf261aa7d6c973edeb194d7bd6712981c2f88b17d165ed7277",
    "box:6": "59074299a201a011e2f7fa92d1718007d8918179c0d39b0b92e906e1c73e8d27",
    "box:7": "2bf123fadb6ed243fcf16f7e301047e59f1fe488cbb7b6bf2e4c392f63be5498",
    "box:8": "1d35b8eefe9cc1124c1cc6b6ed7f418df112fe929fc9ccf03584ea9adc7a9a26",
    "box:9": "e121fe1da4af468ed1366f237097182a82ef396b1d93fc2e850d1133a97fb238",
    "box:10": "78db6b86e2815e45e6067eede9e6081a6e0644121cf78c247a3a24eb54d28846",
    "box:11": "224da144e96f67bfa4d963a8df13288ac25a463290625a1d91db4b6422d71d26",
    "box:n5:0": "50ee0603bdb7464ca54ca99d7279bc8ac0cc7e19e65392bd90a9bcea2afd6785",
    "box:n5:1": "caced003eca234bc55a71106070ce6578c1c32037d572b7d406c6865e22f2ff6",
    "hex:0": "2ff47346bd6331ed74369c506b381522e9de427367b2587d55bc71127bb31c21",
    "hex:1": "2ff47346bd6331ed74369c506b381522e9de427367b2587d55bc71127bb31c21",
    "hex:2": "2ff47346bd6331ed74369c506b381522e9de427367b2587d55bc71127bb31c21",
    "hex:3": "2ff47346bd6331ed74369c506b381522e9de427367b2587d55bc71127bb31c21",
    "hex:4": "2ff47346bd6331ed74369c506b381522e9de427367b2587d55bc71127bb31c21",
    "hex:5": "2ff47346bd6331ed74369c506b381522e9de427367b2587d55bc71127bb31c21",
    "hex:6": "2ff47346bd6331ed74369c506b381522e9de427367b2587d55bc71127bb31c21",
    "hex:7": "2ff47346bd6331ed74369c506b381522e9de427367b2587d55bc71127bb31c21",
    "cycle:3": "2ff47346bd6331ed74369c506b381522e9de427367b2587d55bc71127bb31c21",
    "cycle:4": "2ff47346bd6331ed74369c506b381522e9de427367b2587d55bc71127bb31c21",
    "box4cycle": "0167712d0c039666d41f27434c2d1116195b9dfaf171682213afa13617235282",
    "twisted-boxes:n0": "0a99835f086acf3e47af8e776e5a53c60177d5449f101d48a792434bc6830c9d",
    "twisted-boxes:n1": "b17a1621d576e08c115acab1275cafc8f289cc1efcea2322e07928a03e90454b",
    "twisted-boxes:n2": "885f8043f0e27040c7d19194cc0cb1968042e4683a32898a1c1d48331cdc4219",
    "twisted-boxes:n3": "05e760f78e2039054837a48c6b4759e43e500d0a2a076ce20e863c745e85f086",
    "twisted-boxes:n4": "41055b02304d0f6687370f6526619603a0d7b687304a9d1224a890a95dc6eb9c",
}

REFUSALS_FROZEN = "9c561c8adf7cd419926f233c046e9386b34e050993cdd631d00af7497500d306"


@pytest.mark.parametrize("name, build", POLYTOPE_CASES, ids=[name for name, _ in POLYTOPE_CASES])
def test_polytope_faces_are_frozen(name, build):
    assert _digest(lambda: _polytope_facts(build())) == POLYTOPE_FROZEN[name]


def test_refusal_texts_are_frozen():
    assert _digest(_refusal_texts) == REFUSALS_FROZEN


def _gkm_facts(t):
    """Each fixed point as (vertex_id, point, key), then each moment-graph edge
    as (endpoint keys, weight, folded, chain as (vid, face vertices) pairs);
    a refused part as its exception class name."""
    lines = []
    try:
        lines += [repr((fp.vertex_id, fp.point, fp.key)) for fp in fixed_points(t)]
        edges = moment_graph(t).edges
    except OrigamiError as exc:
        edges = ()
        lines.append(type(exc).__name__)
    for e in edges:
        a, b = e.endpoints
        chain = tuple((vid, f.vertices) for vid, f in e.chain)
        lines.append(repr((a.key, b.key, e.weight, e.folded, chain)))
    return "\n".join(lines)


GKM_FROZEN = {
    "corpus:chain3": "787e4cfb97e2f11908abdc3b08ff07672a97152efb26e8a6d07ec99baa6ee766",
    "corpus:cp2": "2e1ee91309c85d52572697e0c0cb9a6ad570ae6e63cfb95e0bc99cb75c6e06cb",
    "corpus:hirzebruch": "7bba0b3c0bd38f7fed091df21312f492600b43b3d32c36c54d337b00d8b33c33",
    "corpus:oddcycle3": "0d057e3ef1632043129df6308438082f09a1de1ee4ce82c86633f250475a6053",
    "corpus:rp2": "54324658e2eba91c826cb01a802414559c8b8b713b28b4df68cd5075611cf1b5",
    "corpus:s2": "0c9fc25f2a127b6230881b9be3cb05cf4e0ef211f0f074ef479921d45509f790",
    "corpus:s4": "a4d8d158fc1a009fa3f6962e771ed0be34b281790e6f5c8c8bd34c0eb334c426",
    "corpus:s6": "2b58f43d120ce6790690eb4500591cabf4c4a40cb574079e9642062a43e73bd9",
    "corpus:torus": "e1b37ce1ee73c4e8f1c47a9ebf01a67791e5e379704df8fd9927ad6fed48c083",
    "box:0": "e32f0386cf277527efeb48f5ed7ee89173ab7188b9b34b5c9e33731fda669d85",
    "box:1": "89b9db20bb2dc0fdb7e4fcae65fce6e965e76f5f20b939881d3c78e4946aee12",
    "box:2": "87989d40de682cc304930ba687c241e09f3e670ab79faaffc12625516df7b325",
    "box:3": "1c97646fdf48305996f58bcc1f9208fcaeedb353c92ba5c051bfecbf48fb1b62",
    "box:4": "acccb43d424d998d139e711b16a0d3fb5332ec828751768f740a5efd5a733b5d",
    "box:5": "0756865f14c199db3f7f21301137e109d754c30abaca9841f9c16bc7674f4020",
    "box:6": "d66ea66d87ed40efb2437ca733d52243dd34772e8045d2c05a1df4542af9d69c",
    "box:7": "abd6b8ffae32fef6f4d3af2c32730ca3ae57e9c77312855f8ef573f0064d06ab",
    "box:8": "5ce6e5e438be4ee0d2d1c5e127f1ca806b7bc78e693e512cbb241fd4992bb689",
    "box:9": "e075b27c9e36afc168c0e2602d6ee6767716d8468d7270b718a772a7c099eb39",
    "box:10": "87f75f2762f41e90fb56991e0de71a13b60606becc8f54c7e34cbd986e260422",
    "box:11": "83b0bde963f6098ca14a2658778a5dfdf7bcabd471ef6c2724f7555e774a3326",
    "box:n5:0": "a1d5fb28446dc239f0eeaa04a835851e76fa30629bc8021c55b3f204a0d131ac",
    "box:n5:1": "f03c0f34cfefdead2196b02735f561b85650c83659ddab4ddb6f28396d028545",
    "hex:0": "f3c26325581dab90d2f0d5de8953f9c7748afc6062d7abbbc37b918135bf5d27",
    "hex:1": "f238de538a25478d78375e3c238004d9e0ae1072dcd545bc88e69abb8b280797",
    "hex:2": "00092432044fdc806eaaf1c53b72cafc3bebede7f84ce66eafddbabb1cc365c5",
    "hex:3": "d75a96880c4e09f2a8d622748f431e1325ab08a24d69aafe14e36132c2d6c211",
    "hex:4": "abdd8bc6906cfaf10770a0afe5d31857d99b830d4f9cb9d720ecc425da125a68",
    "hex:5": "14430947f7dae76c417f672d086574e1374add0a4b7d9294e4ac104633c2abdc",
    "hex:6": "381f5a5e8f95fb514301371720b6895aef9a031c021278d7ab00ddd6d7ac08f9",
    "hex:7": "c4d9b1cde08002ca6823b72a79ffe9f1b8b653fa60894b366ca271fd2c7e08e7",
    "cycle:3": "27ecfacfd9745021d2f6b1837de4152df21376f364b0b351eecc9def5698b5b8",
    "cycle:4": "02a146b8a0c3c149149c18202f2fd8c9b101b68da33caa8cf37d4f79550c8164",
    "box4cycle": "e1b37ce1ee73c4e8f1c47a9ebf01a67791e5e379704df8fd9927ad6fed48c083",
}


@pytest.mark.parametrize("name, build", CASES, ids=[name for name, _ in CASES])
def test_fixed_points_and_edges_are_frozen(name, build):
    assert _digest(lambda: _gkm_facts(build())) == GKM_FROZEN[name]
