#!/bin/sh
# Run the two standalone mathematical verifications: finite-difference
# checks of every loss gradient, and randomized trials of the
# prototype-mediated feature-drift bound.  Both exit nonzero on failure.
# Runs the checkout's own source, so no install is needed.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
python3 -m fairseg gradcheck --trials 20
echo
python3 -m fairseg prop1 --trials 1000
