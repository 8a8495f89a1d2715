"""Byte images written by the commit before segment format v2 (d73e8e5).

Nothing in the repository can produce these any more — the v1 block
encoder and directory writer are gone — so they are kept as literals
(zlib, then base64).  Regenerating them means checking that commit out.

``V1_SEGMENT`` is ``segments/g0001-s00.seg`` of the cluster
:func:`fixture_cluster` creates, demoted at that commit: format v1
(magic ``RSEG\\x00\\x01``, pickled per-element lists of descriptor
8-tuples, varint block payloads), 140 objects, 139 postings — two blocks —
under ``"hot"``.

``COMPRESSED_SNAPSHOT`` is ``dumps_index(build_index("tif", ...))`` of
:func:`snapshot_objects` under ``REPRO_POSTINGS_BACKEND=compressed`` at
that commit: it pickles ``CompressedPostingsList`` objects in their old
shape (``_summaries`` lists, v1 payload bytes).
"""

from __future__ import annotations

import base64
import zlib
from pathlib import Path
from typing import List

from repro.cluster import TemporalCluster
from repro.core.collection import Collection
from repro.core.model import TemporalObject, make_object

I64_MAX = (1 << 63) - 1

#: The shard of :func:`fixture_cluster` that ``V1_SEGMENT`` is an image of.
V1_SHARD = "g0001-s00"


def fixture_objects() -> List[TemporalObject]:
    """422 objects over three start-time ranges; all but one carry
    ``"hot"``, so every shard's ``"hot"`` list spans two blocks."""
    objects = [
        make_object(
            3 * i + 1,
            100 * i + (37 * i) % 90,
            100 * i + (37 * i) % 90 + 40 * (i % 13),
            {"hot"} | ({f"r{i % 11}"} if i % 3 == 0 else set()),
        )
        for i in range(420)
    ]
    objects.append(make_object(0, -50, I64_MAX, {"hot", "edge"}))
    objects.append(make_object(2, -7, -7, {"edge"}))
    return objects


def fixture_cluster(directory: Path) -> TemporalCluster:
    """Three time-range shards over :func:`fixture_objects`, all hot."""
    return TemporalCluster.create(
        directory, Collection(fixture_objects()), index_key="tif",
        partitioner="time-range", n_shards=3, n_replicas=1, wal_fsync=False,
    )


def snapshot_objects() -> List[TemporalObject]:
    return [
        make_object(i, 10 * i, 10 * i + 25, {"hot"} | ({f"r{i % 7}"} if i % 2 else set()))
        for i in range(200)
    ]


def _image(packed: str) -> bytes:
    return zlib.decompress(base64.b64decode(packed))


V1_SEGMENT = _image("""
eNrV13tQVOcdxvE9Z3dFhCiKdymGILIi97saq8Z64+TEeEnixHrhsrAYYemyUNBUkfGWdWNR10TT
mMFJTWtGdEiHFJuShtEaxxmbzNjaJjUJY0mHjNYSh9ZLse179v3ucNZOp3+23XHnA895z1n47bvP
QdWilj7b3sRDsYh/ivW/+igtO6geVNcH//07/0cO/aclprk6nm5oVS4q/coR9QO1T22xdlp7rP/v
adSgfeh9+/yC8vAE/vUsu1oqHpbTufezjafliOr4QH3aViTCvWPvZxtpj7VfEbmtSRHhpwlyoVjU
pzbYDhrZtelyYaf1omIsto81rtlsD120ocXaqhgHbd8W+dUJMjfOb7Hafmhc4e0UmTmCl7VNF9HO
EfLk4Gs7bNUi+l2cEdzPlq9isb1rnHoqQ4byFXqstkIR7h4lTw6+RKtiMT1C36howwgcgY9gDMbi
eJyEcTgVH8MkdOBMTMcszMUCnI1zcT4uxMW4DJ/E5bgSn8E1uBbXYzGWYQVuwiqswVqsx0Z8Ebdj
M+7CvbgP9+MBDOCr+Boew1Z8E9/Ck3gKz+A72IGd+B6+j914Hj/ES3gZP8YreBU/wWv4BV7HL7EP
b+At/BoH8A7exwcPbVgrDsNIjMZROAbH4UScgvGYgNMwGVMwDTMxB/NxFj6O8/AJXIRLUcOncAWu
xufweVyHG7EUy7ESN6MbPViHDbgVt+EO3Il70IcvYwsewlfwKL6Ov/qHfITetnt8/5Il/H1ZgJfw
HjZTSFFWegDP4W3cSmHZ7Lwv+HO8gd5h7CNMpeA6sBerhvN7YFKk9DR+huUU42GMj5L+CK/ihmg+
5ziBIm3Fj3DNSOaOMaPYR3gRV1DATRg5WlqI3Vg0hl5ClcLOwp/hwrHsE/wbpoyT/gSv4wsU/gAm
TqB38PdYNlH6J4zjBnECf43rJkv/iOOmSN/Ay/gsN5ZdOPIb9CRewOXx7GuM4EbUgr/ApY9Kv4uW
BMlL2IkLuIHV4D10JErbcfY0Pod4GxO48b2NOdOlJXgDJyfT65jKjXIt9mLsDPYnJqXQG/gZRnOD
PYznUU9lf6I9jf2JXbiYG/NH+HfckyF9F+dlsj/xDjZxQz+DhdncV7EfG3OkP8Ys/gDYiF+hJ096
HKmT7Q/3Szvfl9AjZ3ETfdKNHvojkf7YgjPpi+ZQn9AXvcPC+6UX55DfxGP0yACeoEcGsY3+sNEb
HVhOX3RFhfdLF1aTT6VH6jGZ/tiGGfRHDxbQG32hPqE3+mPC+6Ufj5PfxZOjQ4XNfscS+uMsbqI3
ukN9Ql8kjg/vl0TyLTiT482YQ3/04hz64yYupDcGQn1CbwxODu+XQWwjX0+PdGA5PdKF1fTHL7Ge
/kimL7ZhxqPh/ZJB3oMFHO/DefRIPx6nP+7iSfrDQl+04/Ck8H4pIT+LmzjejR56JJH+2IIz6Y1m
zKE3enFOSni/zCG/icc4PoAn6JFBbKNHbPRGB5bTF11YnRHeL9XkU8nrMZn+2IYZ9EcPFtAbfTiP
3ujHJbnh/XKc/C6eDP0Hgx5px5J85otN9sNWPuLfCzg0i8Nvc5ZVOAN+q8vtDRwIaIrDpfpVT6bx
tepwKQKbiAQRkhEOcTgnEPz6ERnFSGKNI/nyyHgZTZLEyYvOMi46VUaPSZKMc7LkOQ4ZzZSky3Ny
jXOyZJQrKTDOKZDnzJbRXMl8h9/qycqUhxbKbLFkmXFStjzypIyWS1YaR/LkkWdktEay1jhSKI+s
l1GxpMw0pQoZbZJUmcZTI6NaSb1pPI0yelGy3TSeZhntkuw1jWefjPZLDpjGE5DRq5LXTOM5JqNW
yZvm8bwls5OSU6bxnJHRO5IO03g6ZfSe5H3TeLpldF7yoWk8l2R0WfKxaTxXZHRV8olpPNdk9IXk
umk8X8qoT3LDNJ5bMvpaMmAazx0Z3Zc8GBqPblGCmW7FYYppQnokaTSOUoaGpI8hHIcTlaE56VMI
4zFBGRqVPo0wGVNMHzk9jTATc5Shgen5hLPwcWVoZvo8widwkTI0Nn0poYZPKUOT01cQrsbnlKHh
6c8TrsONiml+pYTlWBk2v82kbvSY51dH2IBbzfPbRrgDd5rnt4fQhy+b59dCeAhfMc/vKOHr0rp0
0YaT+YPJP9bjrPG402u9bk9xhTO93O2pKvYG/DGrnBVVzmrvtyo9zlJxrDFwKDBjR0CUp394ravY
U7ahsizgj6zIzMzMSqvNzBRfV1aXORs2vOBsFK3qrSwP+KNlUlPsKa6qFaf67aXuumpvQPP77V6n
J5iFinid0cpajM/uiVt12CK+VIuM/3P6hof+MtRUb6BY1rVY69Bi9DTVZ//0wtKvxGoxxoeXN3kD
Dn2uqmUX3RrtaRSjFb++fiZLP5uvRXkDzuDgxIV0t6qNL/rtN6dYNUWMVFzqbo5mN17K2CfGgl2q
NrZo3+rBEi1J7B/dZtfbUjVb8Icx3nJjyVFjyQ+u3HZr88Ve0KuG6/UZconxvhsr2sSr+OxVC7/z
F4u2TOwI/XSknpEVWpMTXHNO1Sb57G0ei8+ijRDvoL5A0dvzQj9MbnDNNVWL9dmP5NWesmjpYsfq
N+x6eXroOnnBNX8WP43PHljxh2sWbaWYjH54hN6XHVqTH1xjtWqxRX9NPZurxYqPk96s6nNmhFYU
BFeMt4rf6Tdv5G3QCsTm11Mj9K600IrC4IoUq5jc8iXxo7S1YqfqV6P0JbmhFbOCK+Yb17h55PN6
LU58LvVzVn0gJbiizh9RWuwt3uyuEKvWWPXOCH1itOYX+y66zFlb6qms8Va6q2vFxyRGH2n32b//
08Jey56A31ZbU1wdeOit3h3wR9Q7PbXiDHEf90cZW2tDcKcFN5hrpKa6Rmv7XOM0u2uiZnNNEc94
8UwQ308TJoun+LFc4tdzZYpnjmarqytJ382ftEl8UmatfrB/5apFSyzKPwGIk9b7
""")

COMPRESSED_SNAPSHOT = _image("""
eNrFmWl8VNUZxnPXAZSwRREUhaAyCIQkbLIoO4qXBxBRccFxkgzMxGzMTFhEZBNQGAVkcEMFxQ0V
XHBXUEDRVm2rdWldqtZqW22rbbWtdrEvk3ee4Xzg9+Obkw/3yfnf52buPHfOe/KeaVOnTZk4bkbF
8qKiooWlsxqT9dF06bDKvqV1iapkNLmgdFhpRVl5WXlp39JEQ01sfqS6LppKyej0iRM41hCtj8lQ
OjfUWFUbq07LKZXl5X1Lm6IL6hqjNZGqBemYjJ06sGJQYbA6WT2gsnRYRWXF4PKhQweUD1i0xNv4
Vvei3CvTIRlrSjaW5f5ELFWWTszKZhz5s9kN2d5Ls4uy4cwRkZpEdTrR2CBvNJs5quX86sZkrOzg
8TbjCr/krJMXZTNeZFYyNid3FSfemM4Gr2TsZEU2aCeHAS2HQdmgWA7lLYfKlsPAlsNgOTSnVmar
Mq0i1dF0tK5x9oFrBUWZ9ge9i/rGmlhdNlM8PVbf1JiM1k3JfTQtb2LmgbPlp0s43nZ9NlYVWPGu
OmwFbYKe4XixApvADkqCfvnzHQ47wfHBkHC8nQKXwA3Cwej8+R6HvaAyCMLx9gp8Aj8YEZybPz/E
4VAwIYiE4x0UtCJoFUwNEvnzW3O4dXBhkArHOypoQ9AmqAkW5c8/gsNHBA3BqnC8k4IjCY4M5gfr
8+e35XDbYFmwKRwvUVBMUBxkgrvz57fjcLvghuChcC5fZe3J2gdbgqfzlg4c7hDcH+wL554FZR3J
OgaPBa/nLZ043CnYHbwbzj03ykrISoJXgk/ylqM4fFTwZvBlOPeMKTua7Ojgg+DbvKUzhzsHnwc/
hHPPo7JjyI4JvkZrK+/pwvEuwffoZIVzT6/CroRd4VroRtexBMei2EKvnG1w3nYc6XE4xkIFbd0I
uqHUwnDL+LiPJz0efS2Mp+0EghMw2MIUy/jIu5N2xygLF9DWg6AHzrJQbRkfeylpKaZbqKetJ0FP
XGJhnmV89CeSnoi4haW0nURwEpIW1ljGx38y6cm4wsJG2noR9MJKC5vNAMKkYayzsI223gS9cYuF
nWYAp5Cegrss7KKtD0Ef7LDwshlAX9K+eMrCG7T1I+iHvRbeNwMoIy3DaxY+o60/QX+8Y+ErM4By
0nJ8bOE72ioIKvCFBcc2AqgkrcQ3FtraedsAggH4n4XOthHAQNKBaGWjB22DCAaho40+thHAYNLB
OM7GINqGEAzByTZG2kYAp5KeinIbE2kbSjAUw2ycYxsBDCMdhnE2ZtI2nGA4JtuYbRsBjCAdgRk2
5tB2GsFpqLKx0DYCOJ30dNTZWEHbSIKRmGtjrRnAKNJRWGLjZtpGE4zGahtbzQDGkI5B1sZ22sYS
jMXtNp40AxhHOg732dhD23iC8XjUxqtmABNIJ+A5G2/TdgbBGdhv4yMzgDNJz8QvbPyRtokEE/Ge
jb+bAZxFehZ+Z+O/tAUEAf5iI+QYAUwinYR/2ejg5G0gAGwHxzpGAJNJJ+NIByfRNoVgCo520N8x
AphKOhXdHQyl7WyCs3GKg7GOEcA00mkY6AC0nUNwDk53cL5jBDCddDrOdBCl7VyCczHNwWWOEcB5
pOfhYgfNtJ1PcD5mOVjsGAHMIJ2BJgfX0HYBwQW43MEGM4ALSS/EVQ5uo+0igotwnYN7zQAuJr0Y
Nzl4hLaZBDNxp4NnzQAuIb0EDzp4ibYIQQRPOPi5GcClpJfiBQe/pi1KEMVPHXxqBlBFWoW3HPyZ
tmqCavzGwT/NAGpIa/AHB5abt8UIYvibgyNcI4BZpLPwHwdH0TabYDZ8Fye4RgBx0jjau+hNW4Ig
ga4uBrhGALWktTjRxWm0XUZwGcpcnOEaAdSR1uFUF2fTVk9QjzEuLnKNABpIGzDJRYy2RoJGnOei
0TUCaCJtwqUuFtA2h2AOal0sd40AkqRJpF1cS1uKIIUrXdxoBpAmTeNqF3fQ1kzQjOtdPGAGMJd0
Lm518Tht8wjm4R4Xz5sBzCedj4dd/IS2BQQL8IyLX5oBXE56OV508SFtCwkW4mcufm8GcAXpFfiV
i7/StohgEX7r4t9mAFeSXok/ufC8vG0xwWL8w0U7zwhgCekSFHnoQttSgqVo46GnZwSwjHQZSjz0
o205wXIc72GIZwRwFelVCHsYTdsKghWo9BB4RgArSVdihIdzaVtFsAoTPEQ8I4CrSa/GVA8J2q4h
uAYXekh5RgCrSVejxsMi2tYQrEGDh1WeEUCGNIP5HtbTdi3BtVjmYZMZwHWk1yHj4W7a1hKsxQ0e
HjIDWEe6Dls8PE3beoL1uN/DPjOA60mvx2MeXqdtA8EG7PbwrhlAljSLVzx8QttGgo1408OXZgA3
kN6ADzx8S9uNBDficw8/mAHcRHoTvvbQ2s/bbia4Gd976OQbAdxCegtcH91o20SwCcU+evlGALeS
3opjfFTQdhvBbSj1Mdw3Arid9Hb09TGets0EmzHYxxTfCGAL6RaM8nEBbXcQ3IGzfFT7RgB3kt6J
6T7qadtKsBWX+JjnGwHcRXoX4j6W0nY3wd1I+ljjGwHcQ3oPrvCxkbZ7Ce7FSh+bzQDuI70P63xs
o20bwTbc4mOnGcD9pPfjLh+7aHuA4AHs8PGyGcCDpA/iKR9v0LadYDv2+njfDGAH6Q685uMz2h4i
eAjv+PjKDOBh0ofxsY/vaHuE4BF84cMJGQE8SvoovvHRNpS37STYif/56BwyAniM9DG0CqEHbY8T
PI6OIfQJGQE8QfoEjgthEG1PEjyJk0MYGTICeIr0KZSHMJG2pwmexrAQzgkZATxD+gzGhTCTtmcJ
nsXkEGaHjACeI30OM0KYQ9sugl2oCmFhyAhgN+lu1IWwgrbnCZ7H3BDWmgG8QPoCloRwM217CPZg
dQhbzQD2ku5FNoTttO0j2IfbQ3jSDOBF0hdxXwh7aHuJ4CU8GsKrZgD7SffjuRDepu1lgpexP4SP
jACaM24k1wDON4WTZYmGubFkOlaTzZTk+6sTdWhCoi7GVm8440fqEql06kCDNt4204lXqG6sb0rG
UqkD1zh6LH+Z2phKJxpmpyaJ6aCrtI5o2zolb3LMMquoaIlVZP24r6KSH/fV5Ud+ZaOZNpFUc319
NJmIpbSnvjgokpVfsCQt1Iuko4m6g9d8q7L5RZ4oXdCJ0hWcKF2tidLlmShdionStZcoXWeJ0oWV
KF1EidJVkyhdIYnSJZEoXf6I0vWOKF3biNLFjChduIjSlYooXZWI0mWIKF1yiNI1hihdT4jSBYQo
XSyI0tWBKF0JiNLSL0rLvCit66K0hovSoi1KC7QorciitPqK0nIrSkurKK2lorRuitJCKUqLoiit
gqK04onSEidKy5korV+itFaJ0uIkSguRKK08orTKiNKyIkpLiCitGaK0PojSgiBKJ39ROtuL0pld
lE7lonTaFqXztCidk0XpJCxKJ1xROsOK0tlUlE6fonSqFKVz46psTJ7tmli0Jrs2mwlFGmSKmxs7
sIvVKpJqStTVyZw2uXlltipeXPueXVSkk1jth6JnZms/bjl8mjvohpNcPLdRIkft4YvSZrIo7WqK
0vaaKO3ziNKGgyj9z1eU/gtmPPiFx64QeuEj5w3Havs5RUVrs7X95RC0qy2XQ8vttDuM28nth8nl
cps4ctS9BVHa5Bal3VZR2vYTpf0nUdoIEaX/kRuzRuE7W/jGFJ7XwtNSyOqQt9P+MG4nt10nl8tt
MMlR9zxEafNdlHaBRWk7UpT2xURpg0aUdgqMCa8w3RS+7IWvGh908yaKD7qJDodxE7k9RLlcbstL
jroDI0q3AkRpT1qUNkdFaZdOlLaLRGnfwpihC/NjYXYqzA38Zh76Jjoexk3kNjblcrlNODnqfpAo
3ZgQpR1yUdqqFaU9Q1HavBKlXRSjpBQm9MJ0WpjMOJUc+iY6HcZN5HZb5XItu4IidHtKlO6TiNKG
vSjtHIvSFqYo7aWJ0qaOUQQLJahQAArTLye/Q99FyWHcRW4PWC6nu5SidLtMlO7biNINBFHayRal
LVVR2tsTpU0mo24XqmahZhUqBufrQ95Gs0zFVdHqy2INOhU3V5X9H9MYAj8=
""")
