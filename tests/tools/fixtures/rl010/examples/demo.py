from lib.shapes import example_only

example_only()
