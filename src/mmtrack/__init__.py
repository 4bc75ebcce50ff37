"""Two-layer tracking control for mobile manipulators.

A receding-horizon pose-tracking QP over joint-velocity increments is
solved at every control step by finite-time convergent neural dynamics;
the resulting kinematic reference is tracked at the torque level by a
non-singular fast terminal sliding-mode controller with base-motion
compensation.
"""
from .model import (ConfigError, ControllerParams, JointLimits, JointSpec,
                    RobotModel, builtin_panda_on_base, builtin_planar_2link,
                    load_scenario)

__all__ = [
    "ConfigError", "ControllerParams", "JointLimits", "JointSpec",
    "RobotModel", "builtin_panda_on_base", "builtin_planar_2link",
    "load_scenario",
]

__version__ = "0.1.0"
