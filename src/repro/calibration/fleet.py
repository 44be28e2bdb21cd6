"""Fleet-lockstep calibration: provision a whole lot per engine batch.

Fleet provisioning calibrates every (die, standard) of a lot in
lockstep rounds, one fused engine batch per round over every active
die, and per-die keys, scores, step logs and metered measurement
counts stay bit-identical to calibrating each die alone through the
scalar reference ``Calibrator(batch_probing=False)``.  That driver is
:meth:`~repro.calibration.procedure.Calibrator.calibrate_fleet`, and
its bit-exactness argument sits beside the loop there;
``Calibrator.calibrate`` is a lot of one.  :class:`FleetCalibrator`
names the same class for the code that imports it from here.
"""

from repro.calibration.procedure import Calibrator

FleetCalibrator = Calibrator
