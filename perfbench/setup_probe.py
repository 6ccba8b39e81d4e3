"""One fresh start of the program: import optpulse, parse a workload's inputs.

Reads a JSON object from standard input with the source directory, the
model texts and the circuit texts, and prints ``ok`` when all are parsed.
run.py times this process from its start to its exit.
"""

import json
import sys

request = json.load(sys.stdin)
sys.path.insert(0, request["src"])
import optpulse  # noqa: E402

for text in request["models"]:
    optpulse.parse_model(text)
for text in request["circuits"]:
    optpulse.parse_circuit(text)
print("ok")
