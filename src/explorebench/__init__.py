"""Deterministic frontier-exploration simulator and selector benchmark."""
