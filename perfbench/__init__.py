"""dug_ray benchmark (see README.md)."""
