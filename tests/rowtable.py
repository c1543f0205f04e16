"""Small ortholog tables from rows, for tests."""
from crossnorm.core import validate_table


def table_of(rows):
    """Validate ``(gene_id, length_sp1, length_sp2, count_sp1, count_sp2)``
    rows into a table, keeping their order."""
    return validate_table(*zip(*rows))
