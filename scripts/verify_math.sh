#!/bin/sh
# Run the standalone mathematical verification: finite-difference checks
# of every loss gradient.  Exits nonzero on failure.
# Runs the checkout's own source, so no install is needed.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
python3 -m fairseg gradcheck --trials 20
