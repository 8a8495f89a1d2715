"""Music IR: find streaming sessions that played a set of tracks in a window.

The paper's second motivating scenario (Spotify streaming sessions [9]):
"the sessions where users listened to Beethoven's 'Ode to Joy' AND
'Für Elise' from January 1 until January 31, 2024".  A session spans a time
period and its description holds the ids of all streamed tracks.

Run:  python examples/music_sessions.py
"""

import random
import time

from repro import Collection, make_object, make_query
from repro.indexes import IRHintSize, TIFSharding

rng = random.Random(2024)

# --- Synthesise a month-granular year of streaming sessions. ---------------
JAN_1 = 0
DAY = 24 * 3600
YEAR = 365 * DAY
TRACKS = [f"track:{i}" for i in range(4000)]
# Popularity is zipfian: the hits get streamed everywhere.
weights = [1.0 / (rank + 1) for rank in range(len(TRACKS))]

ODE_TO_JOY, FUR_ELISE = "track:7", "track:19"

sessions = []
for session_id in range(12_000):
    start = rng.randint(JAN_1, YEAR - 1)
    # Sessions last minutes to a few hours.
    duration = int(rng.expovariate(1 / 3600)) + 120
    played = set(rng.choices(TRACKS, weights=weights, k=rng.randint(3, 25)))
    sessions.append(make_object(session_id, start, start + duration, played))
collection = Collection(sessions)
print(f"{len(collection)} sessions over one year, "
      f"{len(collection.dictionary)} distinct tracks")

# --- Build the size-focused irHINT (archives care about footprint too). ----
t0 = time.perf_counter()
index = IRHintSize.build(collection)
print(f"irHINT (size) built in {time.perf_counter() - t0:.2f}s, "
      f"{index.size_bytes() >> 20} MB")

# --- The paper's query: both pieces, within January. ------------------------
january = make_query(JAN_1, JAN_1 + 31 * DAY, {ODE_TO_JOY, FUR_ELISE})
both_in_january = index.query(january).tolist()
print(f"\nsessions playing BOTH pieces in January: {len(both_in_january)}")
assert both_in_january == collection.evaluate(january)

# Drill-down: either piece alone, same window (two single-element queries).
for track in (ODE_TO_JOY, FUR_ELISE):
    alone = index.query(make_query(january.st, january.end, {track}))
    print(f"  sessions playing {track:9s} in January: {len(alone)}")

# --- Compare with the most space-efficient IR-first baseline. --------------
sharding = TIFSharding.build(collection)
assert sharding.query(january).tolist() == both_in_january
print(f"\ntIF+Sharding agrees; sizes: irHINT(size)={index.size_bytes() >> 20} MB "
      f"vs tIF+Sharding={sharding.size_bytes() >> 20} MB")

# --- Live ingestion: tonight's sessions stream in. --------------------------
tonight = make_object(
    len(sessions), YEAR - 2 * 3600, YEAR - 1, {ODE_TO_JOY, FUR_ELISE, "track:3"}
)
index.insert(tonight)
new_years_eve = make_query(YEAR - DAY, YEAR, {ODE_TO_JOY, FUR_ELISE})
print(f"\nNew Year's Eve sessions with both pieces: {index.query(new_years_eve).tolist()}")
