"""Report bytes of every command pinned by SHA-256 of stdout.

The `curvature` and `theorem` digests were recorded before curvature moved
from the symbolic Riemann tensor to the pointwise 2-jet evaluation; every
value is an exact rational, so a change of engine must leave each report byte
for byte the same.  The commands cover catalog metrics, both orientations, a
--points list, the text format, and non-closed Theta with an
np_residual_witness.

The `validate` and `integrability` digests were recorded before the structure
kinds got one dispatch table and one frame sweep per run.  A dict in argv is a
structure descriptor, written to a file whose path takes its place; no report
contains that path.  They cover trivial, closed and non-closed omega (one with
a pole at a sample point), a degenerate omega, Poisson and non-Poisson pi,
integrable and non-integrable P, a P with P^2 != Id, and `assembled`.  The
`assembled` failures were recorded before that kind moved from Fraction
wrappers to integer pairs: a singular w_s (zero g, and a g both singular and
not symmetric, where the singular error wins), a g that is not symmetric, a
K1 that is not g-skew, and a pole of Theta at the first point.  The
`validate` at a pole was re-recorded once, when pole points in error texts
became strings ("(0, 0, 0, 0)") instead of Fraction reprs.  The two
`integrability` omega digests whose points include poles of K
({"1,2":"1","3,4":"x1"} at the default points (0,0,0,0) and (0,1,0,0), and
the 1/x1 case at (0,1,1,1)) were re-recorded when the Nijenhuis samples moved
from symbolic sections evaluated at each point to the frame sweep on K(p) and
dK(p): such a point used to count the sections without a pole there and skip
the rest in silence; it now reports the pole as its "error".  Every non-pole
sample is byte for byte the same.  An omega whose literal
x3*(x1^2-1)/(x1-1) cancels its factor x1 - 1, so that RatFunc's trial
division of the numerator by a denominator factor succeeds, shows that the
cancelled factor prints reduced: its d omega witness is "x1 + 1".  No
other pinned report runs that division.  An omega whose entries share the
denominator factor x1 + 1 gives the d omega witness
"(-x4)/((x2 - 3)*(x1 + 1)^2)": its sum merges a shared factor, and its
partials run the quotient rule over two factors, which no other pinned
report does (patch.cyclic_sums notes that the printed form of such a sum
depends on the order of its terms).  The degenerate omega {"1,2": "1"},
singular everywhere, is refused at the fixed points of
structures._jets_at, where its Pfaffian was expanded before.

The three `theorem --samples 300` digests were recorded before the (j,l,r)
residual moved from Lambda^2 inner products of 2-vectors to a contraction of
wedge coordinates with the lowered curvature operator: a pp-wave with a
nonzero witness, constcurv:-1/2 at two given points with 81 nonzero samples,
and a `file:` metric with every entry of g nonzero.  A non-closed `--theta`
on that metric, where g^-1 is neither the identity nor diagonal, was recorded
before the obstruction read its torsion from dTheta through g^-1 instead of
building the torsion tensor.  A `curvature` run on a
`file:` metric without a frame, whose denominator is negative at the point,
was recorded before `onb_search` moved from Fraction wrappers to integer
pairs.  Two `curvature` runs on ppwave:x1*x2^3 pulled back by a linear map,
with every entry of g nonzero, one per orientation, were recorded before
curvature moved to Lambda^2 alone (the 21-entry kernel, the Hodge star
det P eps L(g) and W+- = P+- W): the W+ of one and the W- of the other
have 36 nonzero entries each, where the W+- pinned before came from
pp-waves, whose star is sparse, or from conformally flat metrics, where
W = 0.  The `-` twins of the pinned `curvature ppwave:x1*x2^3` and
`curvature file:no_onb.json` runs, both self-dual with W+ nonzero, were
recorded before the Hodge star became o eps L(G) / sqrt(det G) for the
orientation o, with no frame: each frame, the catalog's and a searched
one, has a negative raw determinant, where every `-` run pinned before was
conformally flat or had a frame of positive determinant.  A tuple in argv is such
a metric file, written under its name to the working directory, so that the
report names it by a relative path.  The five `ppwave:<f>` digests were
re-recorded when a pp-wave's report began to name its profile,
"metric": "ppwave:x2^2" where it said "ppwave"; every other byte is the same.
Two `theorem` runs that no other pinned command covers were recorded before
omega's Pfaffian left the command path: `--epsilon 2` on constcurv:1, the
fixed witness of an epsilon = 2 component, and constcurv:-4 with
`--samples 2`, whose g has a pole at the default points (1,0,0,0) and
(0,1,0,0), which the verdict drops without a word.
"""

import hashlib
import json

import pytest

from paracomplex.cli import main

P_INT = [["0", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "1", "0"]]
P_BAD = [["0", "1", "0", "x1"], ["1", "0", "0-x1", "0"], ["0", "0", "0", "1"], ["0", "0", "1", "0"]]
P_TWO = [["2", "0", "0", "0"], ["0", "2", "0", "0"], ["0", "0", "2", "0"], ["0", "0", "0", "2"]]
G = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
K_STD = [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
# assembled data that fail: a zero g, a g that is not symmetric (K_STD is skew for it), one
# both singular and not symmetric, and a K1 that squares to Id but is not skew for G
G_ZERO = [["0"] * 4 for _ in range(4)]
G_ASYM = [["1", "1", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "-1"], ["0", "0", "0", "-1"]]
G_BOTH = [["1", "1", "0", "0"], ["0"] * 4, ["0", "0", "-1", "-1"], ["0"] * 4]
K_DIAG = [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "-1"]]
# constcurv:-1/2 pulled back by y = (x1, x1+x2, 2x1-x2+x3, x1+x2-x3+x4)
PHI = "1 - (x1^2 + (x1+x2)^2 - (2*x1-x2+x3)^2 - (x1+x2-x3+x4)^2)/8"
DENSE = ("dense.json", {
    "g": [[f"{v}/({PHI})^2" for v in row] for row in
          [["-3", "2", "-1", "-1"], ["2", "-1", "2", "-1"],
           ["-1", "2", "-2", "1"], ["-1", "-1", "1", "-1"]]],
    "onb": [[f"{v}*({PHI})" for v in col] for col in
            [["1", "-1", "-3", "-3"], ["0", "1", "1", "0"], ["0", "0", "1", "1"], ["0", "0", "0", "1"]]],
})
# a metric file with no "onb", so that curvature searches a rational frame at the point,
# and whose denominator factor x1 - 2 is negative there
NO_ONB = ("no_onb.json", {
    "g": [["x2^2/(x1-2)", "0", "0", "1"], ["0", "0", "1", "0"], ["0", "1", "0", "0"],
          ["1", "0", "0", "0"]]})

# ppwave:x1*x2^3 pulled back by y = A x, A with rows (1,1,0,1), (1,2,1,0), (0,1,1,1) and
# (1,0,1,2): g = A^T g_y(A x) A = C + f a a^T for a = (1,1,0,1), every entry nonzero, and the
# frame A^-1 P of the pp-wave's frame P, whose f part is -f/2 A^-1 e_4 = f (-1/4, 1/4, -1/4, 0)
F_PULL = "(x1+x2+x4)*(x1+2*x2+x3)^3"
PPWAVE_PULLBACK = ("ppwave_pullback.json", {
    "g": [[f"{c}+{a * b}*{F_PULL}" for c, b in zip(row, (1, 1, 0, 1))]
          for row, a in zip([[2, 2, 2, 4], [2, 4, 4, 4], [2, 4, 2, 2], [4, 4, 2, 4]], (1, 1, 0, 1))],
    "onb": [[f"{c}+({b})*{F_PULL}" for c, b in zip(col, ("-1/4", "1/4", "-1/4", "0"))]
            if shift else col for col, shift in
            [(["1/4", "1/4", "-3/4", "1/2"], True), (["0", "1/4", "1/2", "-1/4"], False),
             (["-1/4", "3/4", "-5/4", "1/2"], True), (["1", "-1/4", "1/2", "-3/4"], False)]],
})

PINNED = [
    (['curvature', 'constcurv:1', '--point', '0,0,0,0'],
     0, "4489fb542e84cff7eaf07dd348a2ae48eda1f1581dc561e81d3be11b6095947b"),
    (['curvature', 'constcurv:-2/3', '--point', '1,1/2,0,-1', '--orientation', '-'],
     0, "f37d276c757e1fb6f72a9425daa778a76d93ce0929bb06870425adc0aff4956e"),
    (['curvature', 'ppwave:x1*x2^3', '--point', '1,2,0,0'],
     0, "f51287e2b5379f9f763eed383b46120b1c967638d642c9cf8c5a3126f5f7fe42"),
    (['curvature', 'flat', '--point', '1,2,3,4', '--orientation', '-', '--format', 'text'],
     0, "1b0f88f21b70951663864cc2d2ea8df66eccf56796f22f51b1347ebba4fc6144"),
    (['curvature', NO_ONB, '--point', '1,1,0,0'],
     0, "133a136734e231bf94cc1c02282b8a03f93dffda09b719e59279cad77aaf7fe8"),
    (['curvature', 'ppwave:x1*x2^3', '--point', '1,2,0,0', '--orientation', '-'],
     0, "3fe496e323598c2043166262a03ee24f9f9be66c90c69c2fd3cfa2caaeb92b7b"),
    (['curvature', NO_ONB, '--point', '1,1,0,0', '--orientation', '-'],
     0, "26f679cc04220dc1ca078e26b8a43421195467a620c49b6ed5440b41196bfc66"),
    (['curvature', PPWAVE_PULLBACK, '--point', '1,1/2,0,-1', '--orientation', '+'],
     0, "6d26d3a654e157733cb19779a2762303d2765bf24fc8baaa68b2e35e7828ebe0"),
    (['curvature', PPWAVE_PULLBACK, '--point', '1,1/2,0,-1', '--orientation', '-'],
     0, "258140c3a1181c0fe0389aa88a3a5a03990d600752b18bd4e761264ffda3c5b2"),
    (['theorem', 'constcurv:1', '--component', '+-'],
     0, "4fe8fcd6454c5ebc72c63da7d340b329852ed47f5842cc21d6de4871e81a1597"),
    (['theorem', 'constcurv:1', '--component', '++', '--seed', '3'],
     1, "069be91de2dddd3590138c42c9d25dc5782efbe433e55a3accb169b97c04e095"),
    (['theorem', 'ppwave:x2^2', '--component', '++', '--points', '0,0,0,0;1,1/2,0,2'],
     0, "a75b4317c8f358ff51f33cf56d4384864ea9f08b311697de9410e512f1fbab75"),
    (['theorem', 'ppwave:x1*x2^3', '--component=--', '--samples', '60', '--seed', '2'],
     1, "81ccb0c424038b8c56268629011edfde001540370220a2f23b0071a63798b86e"),
    (['theorem', 'flat', '--theta', 'x1*dx2^dx3', '--component', '++'],
     1, "8e6a443c25e8abfd21cb09832724ed675418a462fd87fe66b5c7a302182ccd21"),
    (['theorem', 'constcurv:1', '--theta', 'x1*x2*dx3^dx4', '--component=-+', '--seed', '5'],
     1, "072e2816b7e499705660c7d394e40e717a92c7e77b821cf7a88c8f765b9d57bb"),
    (['theorem', 'constcurv:1', '--component=++', '--epsilon', '2'],
     1, "993dc5427ebec17ff7ae1f5b18ad2ac33108c05f00f1e974d97f28b33031f3a0"),
    (['theorem', 'constcurv:-4', '--component=+-', '--samples', '2'],
     0, "36c4ad44b91c587460dfb5b0196932d8a7f78726d216d5389db396b7567cbf69"),
    (['theorem', 'constcurv:-2/3', '--component', 'mp', '--points', '1,0,0,0;0,1/2,1,0', '--samples', '30'],
     0, "58e3b9aa57a5d6300289f9039ba138ec79c6aca32aaac810004f6b4e6560a2ca"),
    (['theorem', 'ppwave:x2^2', '--component', '+-', '--samples', '300'],
     1, "2bf0317767e779685fabd2e6c5c0f8c285a32249eee3c058d833cef0614a70fd"),
    (['theorem', 'constcurv:-1/2', '--component=--', '--samples', '300', '--seed', '745',
      '--points=-1,1,1,1;0,-2/3,-1,-3/2'],
     1, "8cb024fa6e8d03d7a6ab706f4a97cb6a0c7fc857de50efcb234e1d9752a80caf"),
    (['theorem', DENSE, '--component', '++', '--samples', '300', '--seed', '9'],
     1, "26bc233f552fcbf0db836143c776b35fef7f244da0aa95254edd55c99731a2f2"),
    (['theorem', DENSE, '--component=+-', '--theta', 'x1*dx2^dx3 + x3*x4*dx1^dx4',
      '--samples', '30'],
     1, "8e955da70ea012a1e26c210688f3d2913dc7234bfc527da5759b261de623acd2"),
    (['validate', {'kind': 'trivial'}],
     0, "44995c4b46e9f007e91a1e34cc4a2cad09b1cfb788dd8b70b413b40b90507b28"),
    (['integrability', {'kind': 'trivial'}],
     0, "d64e0b36f012c85b475125505e0432339786c5cb7b6fb0ff4a6e7e59e3c26cb2"),
    (['validate', {'kind': 'omega', 'omega': {'1,2': '1', '3,4': '1'}}, '--points', '0,0,0,0;1,-2,1/3,5'],
     0, "478d785889ecea8835e372e37e152ff1d134a2e9633b275d58d78cbf923701fe"),
    (['integrability', {'kind': 'omega', 'omega': {'1,2': '1', '3,4': '1'}}],
     0, "dbea71455bb06fb83f2bc891a23aee3c6c21f3dda2db0a01a295a8a3947db051"),
    (['integrability', {'kind': 'omega', 'omega': {'1,2': '1', '3,4': 'x1'}}],
     1, "a31023b4cbab6bbc396c52091f36c076077cc8c177a9cb6e2fa27597d1a7ab61"),
    (['integrability', {'kind': 'omega', 'omega': {'1,2': 'x2', '1,3': 'x4', '3,4': '1/x1'}}, '--points', '0,1,1,1;1,1,1,1;2,-1,3,1/2'],
     1, "01729c6f88029ad8a0adf27e73dd8a4df9c670640b7a42927d4874db7c619b18"),
    (['integrability', {'kind': 'omega', 'omega': {'1,2': 'x3*(x1^2-1)/(x1-1)', '3,4': '1'}},
      '--points', '2,1,1,1'],
     1, "8e95d15c71556a0e307d19bd4b8af01071e7f9294a95429467544173e1784fec"),
    (['integrability', {'kind': 'omega', 'omega': {'1,2': 'x3/(x1+1)', '1,3': 'x2/(x1+1)',
                                                   '2,3': 'x4/(x1+1)/(x2-3)', '3,4': '1'}},
      '--points', '1,2,1,1'],
     1, "a9a1db682484259f2344ea195b24f5489611af22d9288e04ece1c2ef29823ea6"),
    (['validate', {'kind': 'omega', 'omega': {'1,2': '1'}}, '--point', '1,1,1,1'],
     1, "0e9df3e854e0e05c0b8de96078aea1bf242a1c920b8a55bc816e2a1c69fc1599"),
    (['validate', {'kind': 'omega', 'omega': {'1,2': '1/x1', '3,4': '1'}}, '--points', '0,0,0,0;1,1,1,1'],
     1, "ea20f5db5833b9b091b41ca4266b9148f43e115325f081daea3c1f9ea6eeca1f"),
    (['integrability', {'kind': 'pi', 'pi': {'1,2': '1'}}],
     0, "6c87084ff48cfceba733e7db05176df30227232546c527da4721b2513918e07f"),
    (['integrability', {'kind': 'pi', 'pi': {'1,2': '1', '3,4': 'x1'}}, '--format', 'text'],
     1, "20b883927a1a28ac9bf1b5e698708bfb06cd46ee6fd0a984516c982b1e014319"),
    (['integrability', {'kind': 'product', 'P': P_INT}],
     0, "aad725af312adcfd2ea3cbdcd93a7968cc76d52b4ce40eeec637d49936fcf850"),
    (['integrability', {'kind': 'product', 'P': P_BAD}],
     1, "5b620b8aae970f01b5384d405025d2a357894e4d23937446f9fca4da10e67ecb"),
    (['validate', {'kind': 'product', 'P': P_BAD}],
     0, "3c54fa0807cb960874dad659396e4f652579bbac163b1950ce81c285daac439c"),
    (['validate', {'kind': 'product', 'P': P_TWO}, '--point', '0,0,0,0'],
     1, "c9e99df2122ba277d8b832b6822c4d3c6f61e726a43c3bae2400fcbc8c121798"),
    (['validate', {'kind': 'assembled', 'g': G, 'theta': {'1,2': '3'}, 'k1': K_STD, 'k2': K_STD}],
     0, "bbf7643221169f19ae7ee2d91e444cae5fc4c12a8defdebf4776f845c9993fa0"),
    (['validate', {'kind': 'assembled', 'g': G_ZERO, 'k1': K_STD, 'k2': K_STD}],
     1, "a604d4f16d43360a1338206dda6abc4a3aecd53048f863ac600f9235558ffc04"),
    (['validate', {'kind': 'assembled', 'g': G_ASYM, 'k1': K_STD, 'k2': K_STD}],
     1, "f3a627ff2c74a922003d2f1b4ac515cdff00a2c6038a706c4f11cc7026e00f00"),
    (['validate', {'kind': 'assembled', 'g': G_BOTH, 'k1': K_STD, 'k2': K_STD}],
     1, "a604d4f16d43360a1338206dda6abc4a3aecd53048f863ac600f9235558ffc04"),
    (['validate', {'kind': 'assembled', 'g': G, 'k1': K_DIAG, 'k2': K_STD}],
     1, "bda1c2924877f8b1d02ac73a4ae7fe185b36cc6ed3df54ee5dd9f5de44785454"),
    (['validate', {'kind': 'assembled', 'vars': ['a', 'b'], 'g': [['1', '0'], ['0', '-1']],
                   'theta': {'1,2': '1/b'}, 'k1': [['0', '1'], ['1', '0']],
                   'k2': [['0', '1'], ['1', '0']]}, '--points', '1,0;1,1'],
     1, "290188a5579fe74389af847da2b8ed183d5b2aa030a24d3191e01502eb42c8fe"),
]


def _label(arg):
    if isinstance(arg, tuple):
        return f"file:{arg[0]}"
    return arg if isinstance(arg, str) else json.dumps(arg, separators=(",", ":"))


@pytest.mark.parametrize("argv,code,digest", PINNED,
                         ids=[" ".join(map(_label, a)) for a, _, _ in PINNED])
def test_report_bytes_pinned(capsys, tmp_path, monkeypatch, argv, code, digest):
    monkeypatch.chdir(tmp_path)
    descriptor = tmp_path / "descriptor.json"
    for arg in argv:
        if isinstance(arg, dict):
            descriptor.write_text(json.dumps(arg))
        elif isinstance(arg, tuple):
            (tmp_path / arg[0]).write_text(json.dumps(arg[1]))
    assert main([str(descriptor) if isinstance(a, dict) else _label(a) for a in argv]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
