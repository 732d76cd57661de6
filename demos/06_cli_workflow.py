# The installed `sdres` command exposes pipeline prefixes; this drives the
# same entry point in-process.  Exit code 0 covers the "No SDResultant"
# verdict too: a negative answer is an answer, not an error.

import json
import pathlib
import tempfile

from sdres.cli import main

SYSTEM = """
P0 = u + u*y[1,0]
P1 = u + u*y[1,1]
"""

with tempfile.TemporaryDirectory() as workdir:
    path = pathlib.Path(workdir) / "toy.sys"
    path.write_text(SYSTEM)
    report = pathlib.Path(workdir) / "report.json"

    print("== sdres check ==")
    code = main(["check", str(path)])
    print("exit code:", code)

    print("== sdres bounds ==")
    main(["bounds", str(path)])

    print("== sdres resultant --format json --out ... ==")
    main(["resultant", str(path), "--format", "json", "--out", str(report)])
    data = json.loads(report.read_text())
print("terms in the resultant:", len(data["resultant"]["terms"]))
print("kept variables:", data["kept_vars"])
