"""Recognizer benchmark for psdg; see README.md in this directory."""
