"""Report bytes of `curvature` and `theorem` pinned by SHA-256 of stdout.

The digests were recorded before curvature moved from the symbolic Riemann
tensor to the pointwise 2-jet evaluation; every value is an exact rational,
so a change of engine must leave each report byte for byte the same.  The
commands cover catalog metrics, both orientations, a --points list, the
text format, and non-closed Theta with an np_residual_witness.
"""

import hashlib

import pytest

from paracomplex.cli import main

PINNED = [
    (['curvature', 'constcurv:1', '--point', '0,0,0,0'],
     0, "4489fb542e84cff7eaf07dd348a2ae48eda1f1581dc561e81d3be11b6095947b"),
    (['curvature', 'constcurv:-2/3', '--point', '1,1/2,0,-1', '--orientation', '-'],
     0, "f37d276c757e1fb6f72a9425daa778a76d93ce0929bb06870425adc0aff4956e"),
    (['curvature', 'ppwave:x1*x2^3', '--point', '1,2,0,0'],
     0, "1dfbc8f1df5444c88356f0ddd28332ac0ec732cf5122e63cb2ab9113358b4954"),
    (['curvature', 'flat', '--point', '1,2,3,4', '--orientation', '-', '--format', 'text'],
     0, "1b0f88f21b70951663864cc2d2ea8df66eccf56796f22f51b1347ebba4fc6144"),
    (['theorem', 'constcurv:1', '--component', '+-'],
     0, "4fe8fcd6454c5ebc72c63da7d340b329852ed47f5842cc21d6de4871e81a1597"),
    (['theorem', 'constcurv:1', '--component', '++', '--seed', '3'],
     1, "069be91de2dddd3590138c42c9d25dc5782efbe433e55a3accb169b97c04e095"),
    (['theorem', 'ppwave:x2^2', '--component', '++', '--points', '0,0,0,0;1,1/2,0,2'],
     0, "b2c21cc123edb4851751fbe43f8833569caadecd1a3b7e10a3dd2747090793f2"),
    (['theorem', 'ppwave:x1*x2^3', '--component=--', '--samples', '60', '--seed', '2'],
     1, "95f7a6861c13ebb9a5546b22373980c7b4403ef89245d762d0b04956c47e6a2f"),
    (['theorem', 'flat', '--theta', 'x1*dx2^dx3', '--component', '++'],
     1, "8e6a443c25e8abfd21cb09832724ed675418a462fd87fe66b5c7a302182ccd21"),
    (['theorem', 'constcurv:1', '--theta', 'x1*x2*dx3^dx4', '--component=-+', '--seed', '5'],
     1, "072e2816b7e499705660c7d394e40e717a92c7e77b821cf7a88c8f765b9d57bb"),
    (['theorem', 'constcurv:-2/3', '--component', 'mp', '--points', '1,0,0,0;0,1/2,1,0', '--samples', '30'],
     0, "58e3b9aa57a5d6300289f9039ba138ec79c6aca32aaac810004f6b4e6560a2ca"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED, ids=[" ".join(a) for a, _, _ in PINNED])
def test_report_bytes_pinned(capsys, argv, code, digest):
    assert main(list(argv)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
