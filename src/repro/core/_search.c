/*
 * The compiled state of one run of Algorithm 1 (core/cost_distance.py).
 *
 * A Solve holds what a run touches between two merges: every live search's
 * labels (tentative distance, parent, permanent flag) and sub-heap, the top
 * heap of the two-level heap (III-B), the components -- owner, size and
 * edge set -- and per component node its component, its delay to the
 * component's representative terminal and its union-find link over the
 * tree edges.  cd_run pops, settles and relaxes, queues the connection
 * candidates of settled nodes of other components and re-queues or drops
 * popped ones, and hands control back to Python only for a merge, after
 * doing the merge's edge work (the path, the tree edges, the union of the
 * two components).  Python decides the rest -- the Steiner placement (with
 * cd_best_steiner's help), the new search's id and weight, the total active
 * weight -- and cd_merge finishes the merge (searches, component delays,
 * the candidates of the new path nodes, the A* target field) and runs on to
 * the next one.  cd_prune peels the finished tree's dangling branches.
 *
 * The Python code is the specification: `PySearchLoop` (cost_distance.py),
 * the same interface in Python -- its `run` of the loop and the
 * candidates, `connection_key` of their keys, `_absorb` and `merge` of the
 * merge -- with `_component_delays`, `_best_steiner_position` and
 * `_target_l1` of its recomputations and `prune_dangling_branches` of the
 * pruning.  The heap's sift loops (sift-up
 * stops at <=, sift-down prefers the left child on ties and stops at >=),
 * the pop-then-push of the top entry, remove_search's swap with the last
 * entry, the per-node ascending edge order, the order of every push and
 * every float expression are the same, so every pop, label, merge and tree
 * is the same.  Compile without floating-point contraction
 * (-ffp-contract=off): `a + b + w * d` must stay two roundings apart from a
 * fused multiply-add.
 *
 * One Solve serves many runs: cd_reset frees the searches and the members
 * and keeps the tables' capacity.  Memory grows with the nodes a search
 * touches and the nodes of the components, never with the graph (the
 * target field, one double per planar tile, is Python's buffer): labels and
 * component nodes sit in open-addressing tables keyed by node.  There is no
 * global mutable state; concurrent runs in threads on separate Solves share
 * nothing but the read-only graph and cost arrays.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EMPTY (-1)

/* Component owners: a live search's id, or */
#define OWNER_ROOT (-1) /* the root (ROOT_ID) */
#define OWNER_NONE (-2) /* none: merged into another component */

/* cd_run's and cd_merge's results */
#define EV_EXHAUSTED 0 /* the queue ran empty with searches left */
#define EV_MERGE 1     /* a connection candidate won: the merge is Python's turn */
#define EV_DONE 2      /* no live search left */
#define EV_NOMEM 3

/* ------------------------------------------------------------ int map */

typedef struct {
    int32_t key; /* EMPTY: free slot */
    int32_t value;
} Slot;

/* Open addressing with linear probing over non-negative int32 keys; the
 * load stays at most 1/2.  Entries are never deleted one by one. */
typedef struct {
    Slot *slots;
    uint32_t mask; /* capacity - 1 */
    int32_t count;
} IntMap;

static inline uint32_t slot_of(int32_t key, uint32_t mask)
{
    uint32_t h = (uint32_t)key * 0x9E3779B1u;
    return (h ^ (h >> 15)) & mask;
}

static int32_t map_get(const IntMap *map, int32_t key)
{
    if (map->slots == NULL)
        return EMPTY;
    uint32_t i = slot_of(key, map->mask);
    for (;;) {
        const Slot *slot = &map->slots[i];
        if (slot->key == key)
            return slot->value;
        if (slot->key == EMPTY)
            return EMPTY;
        i = (i + 1) & map->mask;
    }
}

static int map_grow(IntMap *map)
{
    uint32_t old_capacity = map->slots ? map->mask + 1 : 0;
    uint32_t capacity = old_capacity ? 2 * old_capacity : 16;
    Slot *slots = malloc((size_t)capacity * sizeof(Slot));
    if (slots == NULL)
        return -1;
    memset(slots, 0xFF, (size_t)capacity * sizeof(Slot)); /* key = value = EMPTY */
    uint32_t mask = capacity - 1;
    for (uint32_t j = 0; j < old_capacity; j++) {
        Slot old = map->slots[j];
        if (old.key == EMPTY)
            continue;
        uint32_t i = slot_of(old.key, mask);
        while (slots[i].key != EMPTY)
            i = (i + 1) & mask;
        slots[i] = old;
    }
    free(map->slots);
    map->slots = slots;
    map->mask = mask;
    return 0;
}

/* Insert or overwrite. */
static int map_put(IntMap *map, int32_t key, int32_t value)
{
    if (map->slots == NULL || 2 * ((uint32_t)map->count + 1) > map->mask + 1) {
        if (map_grow(map) < 0)
            return -1;
    }
    uint32_t i = slot_of(key, map->mask);
    for (;;) {
        Slot *slot = &map->slots[i];
        if (slot->key == key) {
            slot->value = value;
            return 0;
        }
        if (slot->key == EMPTY) {
            slot->key = key;
            slot->value = value;
            map->count++;
            return 0;
        }
        i = (i + 1) & map->mask;
    }
}

/* Drop every entry, keep the slots. */
static void map_clear(IntMap *map)
{
    if (map->slots != NULL)
        memset(map->slots, 0xFF, (size_t)(map->mask + 1) * sizeof(Slot));
    map->count = 0;
}

static void map_free(IntMap *map)
{
    free(map->slots);
    map->slots = NULL;
    map->mask = 0;
    map->count = 0;
}

/* ------------------------------------------------------------ buffers */

/* Room for `need` items of `size` bytes in `*data` (capacity `*capacity`). */
static int reserve(void *data, int32_t *capacity, int32_t need, size_t size)
{
    if (need <= *capacity)
        return 0;
    int32_t grown = *capacity ? *capacity : 16;
    while (grown < need)
        grown *= 2;
    void *more = realloc(*(void **)data, (size_t)grown * size);
    if (more == NULL)
        return -1;
    *(void **)data = more;
    *capacity = grown;
    return 0;
}

typedef struct {
    int32_t *data;
    int32_t count, capacity;
} Ints;

static int ints_push(Ints *ints, int32_t value)
{
    if (reserve(&ints->data, &ints->capacity, ints->count + 1, sizeof(int32_t)) < 0)
        return -1;
    ints->data[ints->count++] = value;
    return 0;
}

typedef struct {
    double *data;
    int32_t count, capacity;
} Doubles;

static int doubles_push(Doubles *doubles, double value)
{
    if (reserve(&doubles->data, &doubles->capacity, doubles->count + 1, sizeof(double)) < 0)
        return -1;
    doubles->data[doubles->count++] = value;
    return 0;
}

/* ------------------------------------------------------------ state */

/* One node a search has touched.  A heap item is `entry * 2 + kind`: kind
 * 0 is the node's label, kind 1 its connection candidate ("c", node). */
typedef struct {
    int32_t node;
    int32_t parent_edge; /* EMPTY: no parent (the seed) */
    int32_t parent_node;
    int32_t permanent;
    int32_t pos[2]; /* sub-heap position per item kind, EMPTY if not queued */
    double dist;    /* tentative distance, INFINITY if none */
} Entry;

typedef struct {
    int32_t node; /* its terminal */
    int32_t comp;
    int32_t top; /* position in the top heap, EMPTY if absent */
    double weight;
    double rate;
    IntMap index; /* node -> entry */
    Entry *entries;
    int32_t num_entries, entry_capacity;
    double *keys; /* the sub-heap */
    int32_t *items;
    int32_t size, capacity;
} Search;

/* A node of a component, of a tree edge or of a walked edge set. */
typedef struct {
    int32_t node;
    int32_t comp; /* EMPTY: none */
    int32_t up;   /* union-find parent row over the tree edges, EMPTY: a root */
    int32_t walk; /* the last component-delay walk that labelled it */
    int32_t done; /* settled in walk `walk` */
    double delay; /* to its component's representative (0.0 until reached) */
    double label; /* its tentative delay in walk `walk` */
} Member;

typedef struct {
    int32_t owner; /* a live search, OWNER_ROOT or OWNER_NONE */
    int32_t size;  /* member rows in it */
    IntMap edges;  /* its edges: III-A's free edges and the delay walk's */
} Comp;

/* What Python reads after a call: counters, the last merge and views of
 * the C buffers (valid until the next call). */
typedef struct {
    int64_t pops, labels;
    int32_t search, owner, node; /* the merge: source search, target owner, meeting node */
    int32_t big, small;          /* the surviving and the absorbed component */
    int32_t length;              /* edges of the path (nodes: one more) */
    int32_t num_new;             /* path nodes that joined `big` */
    int32_t num_tree, num_kept;  /* tree edges, and those cd_prune kept */
    int32_t num_pairs, pair_capacity;
    const int32_t *path_nodes, *path_edges, *new_nodes, *tree, *kept;
    const int32_t *pair_nodes, *pair_ids;
    const double *pair_dist, *pair_delay;
} View;

typedef struct {
    /* The routing graph in CSR form and the batch's arrays (borrowed). */
    const int32_t *start, *edge, *other;
    const double *cost, *delay;
    double *l1;          /* Python's target field buffer, per planar tile */
    const double *field; /* l1 once targets are set this run; NULL: potential 0 */
    View *view;
    int32_t nx, ny, planar_tiles;
    /* The run's parameters (cd_reset). */
    int32_t discount, future, encourage, root, root_comp;
    double dbif, eta, total_weight;
    IntMap member_index; /* node -> member */
    Member *members;
    int32_t num_members, member_capacity;
    Comp *comps;
    int32_t num_comps, comp_capacity;
    /* The scratch of the component-delay walk: an edge set and a heap. */
    IntMap walk_edges;
    double *walk_keys;
    int32_t *walk_items;
    int32_t walk_size, walk_capacity, walks;
    Search **searches; /* by search id */
    int32_t num_searches, live;
    /* The top heap over the sub-heap minima. */
    double *top_keys;
    int32_t *top_items;
    int32_t top_size, top_capacity;
    int64_t size; /* queued items, all searches */
    int64_t pops, labels;
    /* The merge in progress (cd_run's EV_MERGE to cd_merge). */
    int32_t source, owner, meeting, big, small;
    Ints path_nodes, path_edges, new_nodes, tiles;
    Ints tree, tree_a, tree_b; /* tree edges in insertion order, their end rows */
    Ints kept;
    Ints pair_nodes, pair_ids; /* the last scan's pairs */
    Doubles pair_dist, pair_delay;
} Solve;

static void search_free(Search *search)
{
    if (search == NULL)
        return;
    map_free(&search->index);
    free(search->entries);
    free(search->keys);
    free(search->items);
    free(search);
}

/* The search `id`, registered empty (and live) if it is not. */
static Search *search_get(Solve *solve, int32_t id)
{
    if (id < 0)
        return NULL;
    if (id >= solve->num_searches) {
        int32_t count = solve->num_searches ? solve->num_searches : 8;
        while (count <= id)
            count *= 2;
        Search **grown = realloc(solve->searches, (size_t)count * sizeof(Search *));
        if (grown == NULL)
            return NULL;
        memset(grown + solve->num_searches, 0,
               (size_t)(count - solve->num_searches) * sizeof(Search *));
        solve->searches = grown;
        solve->num_searches = count;
    }
    Search *search = solve->searches[id];
    if (search == NULL) {
        search = calloc(1, sizeof(Search));
        if (search == NULL)
            return NULL;
        search->top = EMPTY;
        search->comp = EMPTY;
        solve->searches[id] = search;
        solve->live++;
    }
    return search;
}

static inline Search *search_find(const Solve *solve, int32_t id)
{
    return id >= 0 && id < solve->num_searches ? solve->searches[id] : NULL;
}

/* The entry of `node`, created untouched if `create` and absent. */
static int32_t entry_of(Search *search, int32_t node, int create)
{
    int32_t index = map_get(&search->index, node);
    if (index != EMPTY || !create)
        return index;
    if (search->num_entries == search->entry_capacity) {
        int32_t capacity = search->entry_capacity ? 2 * search->entry_capacity : 16;
        Entry *grown = realloc(search->entries, (size_t)capacity * sizeof(Entry));
        if (grown == NULL)
            return -2;
        search->entries = grown;
        search->entry_capacity = capacity;
    }
    index = search->num_entries;
    if (map_put(&search->index, node, index) < 0)
        return -2;
    search->num_entries++;
    Entry *entry = &search->entries[index];
    entry->node = node;
    entry->parent_edge = EMPTY;
    entry->parent_node = EMPTY;
    entry->permanent = 0;
    entry->pos[0] = entry->pos[1] = EMPTY;
    entry->dist = INFINITY;
    return index;
}

/* The member row of `node`, created outside every component if `create`
 * and absent: EMPTY if absent, -2 out of memory. */
static int32_t member_of(Solve *solve, int32_t node, int create)
{
    int32_t index = map_get(&solve->member_index, node);
    if (index != EMPTY || !create)
        return index;
    if (solve->num_members == solve->member_capacity) {
        int32_t capacity = solve->member_capacity ? 2 * solve->member_capacity : 16;
        Member *grown = realloc(solve->members, (size_t)capacity * sizeof(Member));
        if (grown == NULL)
            return -2;
        solve->members = grown;
        solve->member_capacity = capacity;
    }
    index = solve->num_members;
    if (map_put(&solve->member_index, node, index) < 0)
        return -2;
    solve->num_members++;
    Member *member = &solve->members[index];
    member->node = node;
    member->comp = EMPTY;
    member->up = EMPTY;
    member->walk = 0;
    member->done = 0;
    member->delay = 0.0;
    member->label = INFINITY;
    return index;
}

/* Put the member row of `node` (created if absent) into `comp`. */
static int join(Solve *solve, int32_t node, int32_t comp)
{
    int32_t row = member_of(solve, node, 1);
    if (row < 0)
        return -1;
    Member *member = &solve->members[row];
    if (member->comp != comp) {
        if (member->comp != EMPTY)
            solve->comps[member->comp].size--;
        member->comp = comp;
        solve->comps[comp].size++;
    }
    return 0;
}

/* Component `comp` exists (new ones: no owner, no members, no edges). */
static int comp_reserve(Solve *solve, int32_t comp)
{
    if (comp < solve->num_comps)
        return 0;
    if (reserve(&solve->comps, &solve->comp_capacity, comp + 1, sizeof(Comp)) < 0)
        return -1;
    memset(solve->comps + solve->num_comps, 0,
           (size_t)(comp + 1 - solve->num_comps) * sizeof(Comp));
    for (int32_t c = solve->num_comps; c <= comp; c++)
        solve->comps[c].owner = OWNER_NONE;
    solve->num_comps = comp + 1;
    return 0;
}

/* ---------------------------------------------------------- two-level heap */

static inline void set_pos(Search *search, int32_t item, int32_t pos)
{
    search->entries[item >> 1].pos[item & 1] = pos;
}

static void top_sift_up(Solve *solve, int32_t pos, double key, int32_t id)
{
    double *keys = solve->top_keys;
    int32_t *items = solve->top_items;
    while (pos > 0) {
        int32_t parent = (pos - 1) >> 1;
        double parent_key = keys[parent];
        if (parent_key <= key)
            break;
        keys[pos] = parent_key;
        int32_t moved = items[pos] = items[parent];
        solve->searches[moved]->top = pos;
        pos = parent;
    }
    keys[pos] = key;
    items[pos] = id;
    solve->searches[id]->top = pos;
}

static void top_sift_down(Solve *solve, int32_t pos, double key, int32_t id)
{
    double *keys = solve->top_keys;
    int32_t *items = solve->top_items;
    int32_t size = solve->top_size;
    int32_t child = 2 * pos + 1;
    while (child < size) {
        double child_key = keys[child];
        int32_t right = child + 1;
        if (right < size && keys[right] < child_key) {
            child = right;
            child_key = keys[right];
        }
        if (child_key >= key)
            break;
        keys[pos] = child_key;
        int32_t moved = items[pos] = items[child];
        solve->searches[moved]->top = pos;
        pos = child;
        child = 2 * pos + 1;
    }
    keys[pos] = key;
    items[pos] = id;
    solve->searches[id]->top = pos;
}

/* Room for one more entry in a heap of `size` entries. */
static int heap_reserve(double **keys, int32_t **items, int32_t size, int32_t *capacity)
{
    if (size < *capacity)
        return 0;
    int32_t grown = *capacity ? 2 * *capacity : 16;
    double *more_keys = realloc(*keys, (size_t)grown * sizeof(double));
    if (more_keys == NULL)
        return -1;
    *keys = more_keys;
    int32_t *more_items = realloc(*items, (size_t)grown * sizeof(int32_t));
    if (more_items == NULL)
        return -1;
    *items = more_items;
    *capacity = grown;
    return 0;
}

/* TwoLevelHeap.push: 1 queued or decreased, 0 unchanged, -1 out of memory. */
static int heap_push(Solve *solve, int32_t id, Search *search, int32_t item, double key)
{
    double old_min = search->size ? search->keys[0] : INFINITY;
    int32_t pos = search->entries[item >> 1].pos[item & 1];
    if (pos == EMPTY) {
        if (heap_reserve(&search->keys, &search->items, search->size, &search->capacity) < 0)
            return -1;
        pos = search->size++;
        solve->size++;
    } else if (key >= search->keys[pos]) {
        return 0;
    }
    double *keys = search->keys;
    int32_t *items = search->items;
    while (pos > 0) {
        int32_t parent = (pos - 1) >> 1;
        double parent_key = keys[parent];
        if (parent_key <= key)
            break;
        keys[pos] = parent_key;
        int32_t moved = items[pos] = items[parent];
        set_pos(search, moved, pos);
        pos = parent;
    }
    keys[pos] = key;
    items[pos] = item;
    set_pos(search, item, pos);
    if (key < old_min) {
        /* The sub-heap minimum dropped: insert or decrease the top entry. */
        pos = search->top;
        if (pos == EMPTY) {
            if (heap_reserve(&solve->top_keys, &solve->top_items, solve->top_size,
                             &solve->top_capacity) < 0)
                return -1;
            pos = solve->top_size++;
        }
        top_sift_up(solve, pos, key, id);
    }
    return 1;
}

/* TwoLevelHeap.pop: 0 if empty. */
static int heap_pop(Solve *solve, double *out_key, int32_t *out_id, int32_t *out_item)
{
    if (solve->size == 0 || solve->top_size == 0)
        return 0;
    solve->size--;
    int32_t id = solve->top_items[0];
    Search *search = solve->searches[id];
    double *keys = search->keys;
    int32_t *items = search->items;

    /* Extract the sub-heap minimum. */
    double min_key = keys[0];
    int32_t min_item = items[0];
    int32_t size = --search->size;
    double key = keys[size];
    int32_t item = items[size];
    set_pos(search, min_item, EMPTY);
    double new_min = 0.0;
    if (size) {
        int32_t pos = 0, child = 1;
        while (child < size) {
            double child_key = keys[child];
            int32_t right = child + 1;
            if (right < size && keys[right] < child_key) {
                child = right;
                child_key = keys[right];
            }
            if (child_key >= key)
                break;
            keys[pos] = child_key;
            int32_t moved = items[pos] = items[child];
            set_pos(search, moved, pos);
            pos = child;
            child = 2 * pos + 1;
        }
        keys[pos] = key;
        items[pos] = item;
        set_pos(search, item, pos);
        new_min = keys[0];
    }

    /* Pop the search's top entry (the top heap's root) ... */
    int32_t top_size = --solve->top_size;
    double top_key = solve->top_keys[top_size];
    int32_t top_item = solve->top_items[top_size];
    search->top = EMPTY;
    if (top_size)
        top_sift_down(solve, 0, top_key, top_item);

    /* ... and push it back under the sub-heap's new minimum. */
    if (size) {
        solve->top_size++;
        top_sift_up(solve, top_size, new_min, id);
    }
    *out_key = min_key;
    *out_id = id;
    *out_item = min_item;
    return 1;
}

/* ------------------------------------------------------ the delay walk's heap */

static int walk_push(Solve *solve, double key, int32_t member)
{
    if (heap_reserve(&solve->walk_keys, &solve->walk_items, solve->walk_size,
                     &solve->walk_capacity) < 0)
        return -1;
    double *keys = solve->walk_keys;
    int32_t *items = solve->walk_items;
    int32_t pos = solve->walk_size++;
    while (pos > 0) {
        int32_t parent = (pos - 1) >> 1;
        if (keys[parent] <= key)
            break;
        keys[pos] = keys[parent];
        items[pos] = items[parent];
        pos = parent;
    }
    keys[pos] = key;
    items[pos] = member;
    return 0;
}

static void walk_pop(Solve *solve, double *out_key, int32_t *out_member)
{
    double *keys = solve->walk_keys;
    int32_t *items = solve->walk_items;
    *out_key = keys[0];
    *out_member = items[0];
    int32_t size = --solve->walk_size;
    double key = keys[size];
    int32_t item = items[size];
    int32_t pos = 0, child = 1;
    while (child < size) {
        if (child + 1 < size && keys[child + 1] < keys[child])
            child++;
        if (keys[child] >= key)
            break;
        keys[pos] = keys[child];
        items[pos] = items[child];
        pos = child;
        child = 2 * pos + 1;
    }
    keys[pos] = key;
    items[pos] = item;
}

/* ------------------------------------------------------------ internals */

static void publish(Solve *solve)
{
    View *view = solve->view;
    view->pops = solve->pops;
    view->labels = solve->labels;
    view->search = solve->source;
    view->owner = solve->owner;
    view->node = solve->meeting;
    view->big = solve->big;
    view->small = solve->small;
    view->length = solve->path_edges.count;
    view->num_new = solve->new_nodes.count;
    view->num_tree = solve->tree.count;
    view->num_kept = solve->kept.count;
    view->num_pairs = solve->pair_nodes.count;
    view->pair_capacity = solve->pair_nodes.capacity;
    view->path_nodes = solve->path_nodes.data;
    view->path_edges = solve->path_edges.data;
    view->new_nodes = solve->new_nodes.data;
    view->tree = solve->tree.data;
    view->kept = solve->kept.data;
    view->pair_nodes = solve->pair_nodes.data;
    view->pair_ids = solve->pair_ids.data;
    view->pair_dist = solve->pair_dist.data;
    view->pair_delay = solve->pair_delay.data;
}

static void remove_search(Solve *solve, int32_t id)
{
    Search *search = search_find(solve, id);
    if (search == NULL)
        return;
    solve->size -= search->size;
    int32_t hole = search->top;
    if (hole != EMPTY) {
        int32_t top_size = --solve->top_size;
        double key = solve->top_keys[top_size];
        int32_t item = solve->top_items[top_size];
        if (hole < top_size) {
            top_sift_down(solve, hole, key, item);
            if (solve->searches[item]->top == hole)
                top_sift_up(solve, hole, key, item);
        }
    }
    search_free(search);
    solve->searches[id] = NULL;
    solve->live--;
}

/* activate + start_search: label the seed 0 and queue it under `key`. */
static int start_search(Solve *solve, int32_t id, int32_t node, int32_t comp, double weight,
                        double rate, double key)
{
    Search *search = search_get(solve, id);
    if (search == NULL)
        return -1;
    search->node = node;
    search->comp = comp;
    search->weight = weight;
    search->rate = rate;
    int32_t entry = entry_of(search, node, 1);
    if (entry < 0)
        return -1;
    search->entries[entry].dist = 0.0;
    return heap_push(solve, id, search, 2 * entry, key) < 0 ? -1 : 0;
}

/* The potential's distance factor at `node`: 0.0 before the first targets. */
static inline double field_at(const Solve *solve, int32_t node)
{
    return solve->field ? solve->field[node % solve->planar_tiles] : 0.0;
}

/* `_target_l1` into `l1` (one double per planar tile, kept as the A*
 * field): per tile the L1 distance to the nearest of up to 8 target tiles,
 * to their bounding box beyond.  No targets: all zero. */
static void set_targets(Solve *solve, const int32_t *tiles, int32_t count)
{
    const int32_t nx = solve->nx, ny = solve->ny;
    double *l1 = solve->l1;
    solve->field = l1;
    if (count == 0) {
        memset(l1, 0, (size_t)solve->planar_tiles * sizeof(double));
        return;
    }
    if (count <= 8) {
        int32_t tx[8], dy[8];
        for (int32_t t = 0; t < count; t++)
            tx[t] = tiles[t] % nx;
        for (int32_t y = 0; y < ny; y++) {
            for (int32_t t = 0; t < count; t++)
                dy[t] = abs(y - tiles[t] / nx);
            double *row = l1 + (size_t)y * nx;
            for (int32_t x = 0; x < nx; x++) {
                int32_t best = dy[0] + abs(x - tx[0]);
                for (int32_t t = 1; t < count; t++) {
                    int32_t d = dy[t] + abs(x - tx[t]);
                    best = d < best ? d : best;
                }
                row[x] = (double)best;
            }
        }
        return;
    }
    int32_t x_min = tiles[0] % nx, x_max = x_min, y_min = tiles[0] / nx, y_max = y_min;
    for (int32_t t = 1; t < count; t++) {
        int32_t x = tiles[t] % nx, y = tiles[t] / nx;
        x_min = x < x_min ? x : x_min;
        x_max = x > x_max ? x : x_max;
        y_min = y < y_min ? y : y_min;
        y_max = y > y_max ? y : y_max;
    }
    for (int32_t y = 0; y < ny; y++) {
        int32_t dy = y < y_min ? y_min - y : (y > y_max ? y - y_max : 0);
        double *row = l1 + (size_t)y * nx;
        for (int32_t x = 0; x < nx; x++) {
            int32_t dx = x < x_min ? x_min - x : (x > x_max ? x - x_max : 0);
            row[x] = (double)(dy + dx);
        }
    }
}

/* refresh_targets: the root and every live search's terminal. */
static int refresh_targets(Solve *solve)
{
    solve->tiles.count = 0;
    if (ints_push(&solve->tiles, solve->root % solve->planar_tiles) < 0)
        return -1;
    for (int32_t id = 0; id < solve->num_searches; id++) {
        const Search *search = solve->searches[id];
        if (search && ints_push(&solve->tiles, search->node % solve->planar_tiles) < 0)
            return -1;
    }
    set_targets(solve, solve->tiles.data, solve->tiles.count);
    return 0;
}

/* BifurcationModel.beta, with Python's max and min (the first argument
 * wins a tie, so -0.0 survives as Python keeps it). */
static inline double beta(const Solve *solve, double a, double b)
{
    double high = b > a ? b : a;
    double low = b < a ? b : a;
    return solve->dbif * (solve->eta * high + (1.0 - solve->eta) * low);
}

/* connection_key: the full key of search `search`'s candidate at a node
 * `dist` away whose delay to its component's terminal is `delay`; the
 * component's owner is `target`, NULL for the root. */
static inline double connection_key(const Solve *solve, const Search *search,
                                    const Search *target, double delay, double dist)
{
    double w_u = search->weight, penalty;
    if (target == NULL) {
        double rest = solve->total_weight - w_u;
        penalty = beta(solve, w_u, 0.0 > rest ? 0.0 : rest);
        if (solve->encourage)
            penalty -= solve->eta * solve->dbif * w_u;
        penalty = 0.0 > penalty ? 0.0 : penalty;
    } else {
        penalty = beta(solve, w_u, target->weight);
    }
    return dist + w_u * delay + penalty;
}

/* The live owner of component `comp` as connection_key's `target` (NULL:
 * the root); 0 if the component has no live owner. */
static inline int owner_of(const Solve *solve, int32_t comp, const Search **target)
{
    int32_t owner = solve->comps[comp].owner;
    *target = NULL;
    if (owner == OWNER_ROOT)
        return 1;
    *target = search_find(solve, owner);
    return *target != NULL;
}

/* Relax the edges of `node`, just settled at `dist` by search `id`; the
 * search's own component edges cost 0.0 (III-A). */
static int relax(Solve *solve, int32_t id, Search *search, int32_t node, double dist)
{
    const double weight = search->weight;
    const double rate = search->rate;
    const IntMap *own = NULL;
    if (solve->discount && search->comp >= 0 && search->comp < solve->num_comps &&
        solve->comps[search->comp].edges.count > 0)
        own = &solve->comps[search->comp].edges;
    for (int32_t k = solve->start[node]; k < solve->start[node + 1]; k++) {
        int32_t edge = solve->edge[k];
        int32_t other = solve->other[k];
        int32_t entry = map_get(&search->index, other);
        if (entry != EMPTY && search->entries[entry].permanent)
            continue;
        double edge_cost;
        if (own != NULL && map_get(own, edge) != EMPTY)
            edge_cost = 0.0;
        else
            edge_cost = solve->cost[edge];
        double candidate = dist + edge_cost + weight * solve->delay[edge];
        if (candidate < (entry == EMPTY ? INFINITY : search->entries[entry].dist)) {
            if (entry == EMPTY && (entry = entry_of(search, other, 1)) < 0)
                return -1;
            Entry *label = &search->entries[entry];
            label->dist = candidate;
            label->parent_edge = edge;
            label->parent_node = node;
            if (heap_push(solve, id, search, 2 * entry, candidate + field_at(solve, other) * rate) < 0)
                return -1;
        }
    }
    return 0;
}

/* The parent path of `search` from its seed to `node` into path_nodes
 * (seed first) and path_edges. */
static int path_of(Solve *solve, const Search *search, int32_t node)
{
    int32_t length = 0;
    for (int32_t at = node;;) {
        int32_t entry = map_get(&search->index, at);
        if (entry == EMPTY || search->entries[entry].parent_edge == EMPTY)
            break;
        at = search->entries[entry].parent_node;
        length++;
    }
    if (reserve(&solve->path_nodes.data, &solve->path_nodes.capacity, length + 1,
                sizeof(int32_t)) < 0 ||
        reserve(&solve->path_edges.data, &solve->path_edges.capacity, length,
                sizeof(int32_t)) < 0)
        return -1;
    int32_t *nodes = solve->path_nodes.data, *edges = solve->path_edges.data;
    solve->path_nodes.count = length + 1;
    solve->path_edges.count = length;
    nodes[length] = node;
    for (int32_t pos = length, at = node; pos > 0;) {
        const Entry *entry = &search->entries[map_get(&search->index, at)];
        pos--;
        edges[pos] = entry->parent_edge;
        at = nodes[pos] = entry->parent_node;
    }
    return 0;
}

static int32_t find(Member *members, int32_t row)
{
    int32_t root = row;
    while (members[root].up != EMPTY)
        root = members[root].up;
    while (members[row].up != EMPTY) {
        int32_t next = members[row].up;
        members[row].up = root;
        row = next;
    }
    return root;
}

/* Append `edge` from `u` to `v` to the tree unless it closes a cycle:
 * 1 appended, 0 not, -1 out of memory. */
static int add_tree_edge(Solve *solve, int32_t edge, int32_t u, int32_t v)
{
    int32_t a = member_of(solve, u, 1), b = member_of(solve, v, 1);
    if (a < 0 || b < 0)
        return -1;
    int32_t ra = find(solve->members, a), rb = find(solve->members, b);
    if (ra == rb)
        return 0;
    solve->members[ra].up = rb;
    if (ints_push(&solve->tree, edge) < 0 || ints_push(&solve->tree_a, a) < 0 ||
        ints_push(&solve->tree_b, b) < 0)
        return -1;
    return 1;
}

/* The edge work of merge(`id`, `owner`, `node`): the path, its edges that
 * close no cycle appended to the tree, the smaller component (by members)
 * absorbed into the larger with its edges, and the path's nodes of no
 * component and its edges added to the larger. */
static int absorb(Solve *solve, int32_t id, int32_t owner, int32_t node)
{
    const Search *search = solve->searches[id];
    solve->source = id;
    solve->owner = owner;
    solve->meeting = node;
    if (path_of(solve, search, node) < 0)
        return -1;
    const int32_t *nodes = solve->path_nodes.data, *edges = solve->path_edges.data;
    int32_t length = solve->path_edges.count;
    for (int32_t i = 0; i < length; i++) {
        if (add_tree_edge(solve, edges[i], nodes[i], nodes[i + 1]) < 0)
            return -1;
    }

    int32_t src = search->comp;
    int32_t dst = owner == OWNER_ROOT ? solve->root_comp : solve->searches[owner]->comp;
    int32_t big = src, small = dst;
    if (solve->comps[src].size < solve->comps[dst].size) {
        big = dst;
        small = src;
    }
    solve->big = big;
    solve->small = small;
    Comp *into = &solve->comps[big], *from = &solve->comps[small];
    for (int32_t i = 0; i < solve->num_members; i++) {
        if (solve->members[i].comp == small)
            solve->members[i].comp = big;
    }
    into->size += from->size;
    from->size = 0;
    from->owner = OWNER_NONE;
    if (from->edges.slots != NULL) {
        for (uint32_t j = 0; j <= from->edges.mask; j++) {
            int32_t edge = from->edges.slots[j].key;
            if (edge != EMPTY && map_put(&into->edges, edge, 0) < 0)
                return -1;
        }
    }
    map_free(&from->edges);
    solve->new_nodes.count = 0;
    for (int32_t i = 0; i <= length; i++) {
        int32_t row = member_of(solve, nodes[i], 1);
        if (row < 0)
            return -1;
        if (solve->members[row].comp != EMPTY)
            continue;
        solve->members[row].comp = big;
        into->size++;
        if (ints_push(&solve->new_nodes, nodes[i]) < 0)
            return -1;
    }
    for (int32_t i = 0; i < length; i++) {
        if (map_put(&into->edges, edges[i], 0) < 0)
            return -1;
    }
    return 0;
}

/* Pop and settle until a merge or the end (see EV_*). */
static int run(Solve *solve)
{
    while (solve->live > 0) {
        double key;
        int32_t id, item;
        if (!heap_pop(solve, &key, &id, &item))
            return EV_EXHAUSTED;
        solve->pops++;
        Search *search = solve->searches[id];
        int32_t index = item >> 1;
        Entry *entry = &search->entries[index];
        if (!(item & 1) && entry->permanent)
            continue;
        int32_t row = map_get(&solve->member_index, entry->node);
        const Member *member = row == EMPTY ? NULL : &solve->members[row];
        int32_t comp = member ? member->comp : EMPTY;
        const Search *target;
        if (item & 1) {
            /* try_connection: drop, re-queue under a larger fresh key, or merge. */
            if (comp == EMPTY || comp == search->comp || !owner_of(solve, comp, &target) ||
                !entry->permanent)
                continue;
            double fresh = connection_key(solve, search, target, member->delay, entry->dist);
            if (fresh > key + 1e-9) {
                if (heap_push(solve, id, search, item, fresh) < 0)
                    return EV_NOMEM;
                continue;
            }
            return absorb(solve, id, solve->comps[comp].owner, entry->node) < 0 ? EV_NOMEM
                                                                                : EV_MERGE;
        }
        entry->permanent = 1;
        solve->labels++;
        int32_t node = entry->node;
        double dist = entry->dist;
        if (comp != EMPTY && comp != search->comp && owner_of(solve, comp, &target)) {
            /* offer_connection (III-A: any node of the component connects). */
            int32_t terminal = target ? target->node : solve->root;
            if (solve->discount || node == terminal) {
                double candidate = connection_key(solve, search, target, member->delay, dist);
                if (heap_push(solve, id, search, 2 * index + 1, candidate) < 0)
                    return EV_NOMEM;
            }
        }
        if (relax(solve, id, search, node, dist) < 0)
            return EV_NOMEM;
    }
    return EV_DONE;
}

/* For each node (outer) and each live search (inner, by id: activation
 * order) outside `comp` that has settled the node: the pair, the node's
 * distance and its member delay into the pair buffers; with `push` also
 * its connection candidate towards `comp`. */
static int scan(Solve *solve, const int32_t *nodes, int32_t num_nodes, int32_t comp, int push)
{
    const Search *target = NULL;
    if (push && !owner_of(solve, comp, &target))
        push = 0;
    solve->pair_nodes.count = solve->pair_ids.count = 0;
    solve->pair_dist.count = solve->pair_delay.count = 0;
    for (int32_t i = 0; i < num_nodes; i++) {
        int32_t row = map_get(&solve->member_index, nodes[i]);
        double delay = row == EMPTY ? 0.0 : solve->members[row].delay;
        for (int32_t id = 0; id < solve->num_searches; id++) {
            Search *search = solve->searches[id];
            if (search == NULL || search->comp == comp)
                continue;
            int32_t entry = map_get(&search->index, nodes[i]);
            if (entry == EMPTY || !search->entries[entry].permanent)
                continue;
            double dist = search->entries[entry].dist;
            if (ints_push(&solve->pair_nodes, nodes[i]) < 0 || ints_push(&solve->pair_ids, id) < 0 ||
                doubles_push(&solve->pair_dist, dist) < 0 ||
                doubles_push(&solve->pair_delay, delay) < 0)
                return -1;
            if (push && heap_push(solve, id, search, 2 * entry + 1,
                                  connection_key(solve, search, target, delay, dist)) < 0)
                return -1;
        }
    }
    return 0;
}

/* `_component_delays`: a Dijkstra over the component's `edges` from
 * `representative`, writing each reached node's delay into the member
 * table.  Only members of `comp` are written -- the edges may pass through
 * another component's node, which keeps its own delay -- and a member of
 * `comp` the walk does not reach reads 0.0.  Any tie order gives the same
 * doubles: fl(a + d) is monotone in a. */
static int component_delays(Solve *solve, const IntMap *edges, int32_t representative,
                            int32_t comp)
{
    int32_t walk = ++solve->walks;
    int32_t seed = member_of(solve, representative, 1);
    if (seed < 0)
        return -1;
    solve->members[seed].walk = walk;
    solve->members[seed].done = 0;
    solve->members[seed].label = 0.0;
    solve->walk_size = 0;
    if (walk_push(solve, 0.0, seed) < 0)
        return -1;
    while (solve->walk_size) {
        double dist;
        int32_t member;
        walk_pop(solve, &dist, &member);
        if (solve->members[member].done)
            continue;
        solve->members[member].done = 1;
        int32_t node = solve->members[member].node;
        for (int32_t k = solve->start[node]; k < solve->start[node + 1]; k++) {
            int32_t edge = solve->edge[k];
            if (map_get(edges, edge) == EMPTY)
                continue;
            int32_t other = member_of(solve, solve->other[k], 1);
            if (other < 0)
                return -1;
            Member *next = &solve->members[other]; /* member_of may have moved the rows */
            if (next->walk != walk) {
                next->walk = walk;
                next->done = 0;
                next->label = INFINITY;
            }
            if (next->done)
                continue;
            double candidate = dist + solve->delay[edge];
            if (candidate < next->label) {
                next->label = candidate;
                if (walk_push(solve, candidate, other) < 0)
                    return -1;
            }
        }
    }
    for (int32_t i = 0; i < solve->num_members; i++) {
        Member *member = &solve->members[i];
        if (member->comp == comp)
            member->delay = member->walk == walk ? member->label : 0.0;
    }
    return 0;
}

/* The rest of merge() once Python has decided: end the two searches,
 * start `new_id` (OWNER_ROOT: a root merge) at `node` with `weight` and
 * `rate`, recompute the component delays, queue the candidates of the
 * searches that settled the new path nodes, take the total active weight
 * `total` and refresh the targets. */
static int finish_merge(Solve *solve, int32_t new_id, int32_t node, double weight, double rate,
                        double total)
{
    int32_t big = solve->big;
    int32_t representative = solve->root;
    remove_search(solve, solve->source);
    if (solve->owner == OWNER_ROOT) {
        solve->comps[big].owner = OWNER_ROOT;
        solve->root_comp = big;
    } else {
        remove_search(solve, solve->owner);
        solve->comps[big].owner = new_id;
        /* Started before the targets are refreshed: its first key is taken
         * against the previous target set. */
        if (start_search(solve, new_id, node, big, weight, rate, field_at(solve, node) * rate) < 0)
            return -1;
        representative = node;
    }
    if (component_delays(solve, &solve->comps[big].edges, representative, big) < 0 ||
        scan(solve, solve->new_nodes.data, solve->new_nodes.count, big, 1) < 0)
        return -1;
    solve->total_weight = total; /* the keys above took the previous total */
    if (solve->live > 0 && solve->future)
        return refresh_targets(solve);
    return 0;
}

/* ---------------------------------------------------------------- API */

Solve *cd_new(const int32_t *start, const int32_t *edge, const int32_t *other,
              const double *cost, const double *delay, int32_t nx, int32_t ny, double *l1,
              View *view)
{
    Solve *solve = calloc(1, sizeof(Solve));
    if (solve == NULL)
        return NULL;
    solve->start = start;
    solve->edge = edge;
    solve->other = other;
    solve->cost = cost;
    solve->delay = delay;
    solve->nx = nx;
    solve->ny = ny;
    solve->planar_tiles = nx * ny;
    solve->l1 = l1;
    solve->view = view;
    solve->source = solve->owner = solve->meeting = solve->big = solve->small = EMPTY;
    publish(solve);
    return solve;
}

void cd_free(Solve *solve)
{
    if (solve == NULL)
        return;
    for (int32_t id = 0; id < solve->num_searches; id++)
        search_free(solve->searches[id]);
    free(solve->searches);
    map_free(&solve->member_index);
    free(solve->members);
    for (int32_t c = 0; c < solve->num_comps; c++)
        map_free(&solve->comps[c].edges);
    free(solve->comps);
    map_free(&solve->walk_edges);
    free(solve->walk_keys);
    free(solve->walk_items);
    free(solve->top_keys);
    free(solve->top_items);
    Ints *buffers[] = {&solve->path_nodes, &solve->path_edges, &solve->new_nodes,
                       &solve->tiles,      &solve->tree,       &solve->tree_a,
                       &solve->tree_b,     &solve->kept,       &solve->pair_nodes,
                       &solve->pair_ids};
    for (size_t i = 0; i < sizeof buffers / sizeof buffers[0]; i++)
        free(buffers[i]->data);
    free(solve->pair_dist.data);
    free(solve->pair_delay.data);
    free(solve);
}

/* Start a run of Algorithm 1: drop the previous run's searches, members,
 * components and tree (keeping the tables' capacity), take its parameters
 * -- the root, the switches of III-A, III-C and III-E (`encourage`: on and
 * dbif > 0), the penalty's dbif and eta and the total active weight -- and
 * set up `PySearchLoop.reset`'s state: component 0 the root's, component
 * i + 1 terminal i's, the targets, and search i started at `nodes[i]`. */
int cd_reset(Solve *solve, int32_t root, int32_t discount, int32_t future, int32_t encourage,
             double dbif, double eta, double total, const int32_t *nodes, int32_t count,
             const double *weights, const double *rates)
{
    for (int32_t id = 0; id < solve->num_searches; id++) {
        search_free(solve->searches[id]);
        solve->searches[id] = NULL;
    }
    solve->live = 0;
    solve->top_size = 0;
    solve->size = 0;
    map_clear(&solve->member_index);
    solve->num_members = 0;
    solve->walks = 0;
    for (int32_t c = 0; c < solve->num_comps; c++)
        map_free(&solve->comps[c].edges);
    solve->num_comps = 0;
    solve->path_nodes.count = solve->path_edges.count = solve->new_nodes.count = 0;
    solve->tree.count = solve->tree_a.count = solve->tree_b.count = solve->kept.count = 0;
    solve->pair_nodes.count = solve->pair_ids.count = 0;
    solve->pair_dist.count = solve->pair_delay.count = 0;
    solve->pops = solve->labels = 0;
    solve->source = solve->owner = solve->meeting = solve->big = solve->small = EMPTY;
    solve->field = NULL;
    solve->root = root;
    solve->root_comp = 0;
    solve->discount = discount;
    solve->future = future;
    solve->encourage = encourage;
    solve->dbif = dbif;
    solve->eta = eta;
    solve->total_weight = total;
    if (comp_reserve(solve, count) < 0 || join(solve, root, 0) < 0)
        return -1;
    solve->comps[0].owner = OWNER_ROOT;
    solve->tiles.count = 0;
    if (future && ints_push(&solve->tiles, root % solve->planar_tiles) < 0)
        return -1;
    for (int32_t i = 0; i < count; i++) {
        solve->comps[i + 1].owner = i;
        if (join(solve, nodes[i], i + 1) < 0 ||
            (future && ints_push(&solve->tiles, nodes[i] % solve->planar_tiles) < 0))
            return -1;
    }
    if (future)
        set_targets(solve, solve->tiles.data, solve->tiles.count);
    int status = 0;
    for (int32_t i = 0; i < count && status == 0; i++) {
        status = start_search(solve, i, nodes[i], i + 1, weights[i], rates[i],
                              field_at(solve, nodes[i]) * rates[i]);
    }
    publish(solve);
    return status;
}

/* Run to the next merge (EV_MERGE: its edge work done, see View) or the
 * end. */
int cd_run(Solve *solve)
{
    int status = run(solve);
    publish(solve);
    return status;
}

/* Finish the merge cd_run stopped at (see finish_merge), then run on. */
int cd_merge(Solve *solve, int32_t new_id, int32_t node, double weight, double rate,
             double total)
{
    int status = finish_merge(solve, new_id, node, weight, rate, total) < 0 ? EV_NOMEM
                                                                             : run(solve);
    publish(solve);
    return status;
}

/* `prune_dangling_branches` on the tree edges: peel non-terminal leaves
 * (the root and the sinks are the `terminals`) until none is left, and
 * keep the rest in insertion order.  The edges are acyclic, so every
 * peeling order ends at the same edges.  0, or -1 out of memory. */
int cd_prune(Solve *solve, const int32_t *terminals, int32_t num_terminals)
{
    int32_t num_tree = solve->tree.count, rows = solve->num_members;
    const int32_t *ends[2] = {solve->tree_a.data, solve->tree_b.data};
    int32_t *degree = calloc((size_t)rows + 1, sizeof(int32_t));
    int32_t *first = calloc((size_t)rows + 1, sizeof(int32_t));
    int32_t *incident = malloc((size_t)(2 * num_tree + 1) * sizeof(int32_t));
    int32_t *leaves = malloc((size_t)(rows + 1) * sizeof(int32_t));
    char *terminal = calloc((size_t)rows + 1, 1);
    char *removed = calloc((size_t)num_tree + 1, 1);
    int status = -1;
    if (!degree || !first || !incident || !leaves || !terminal || !removed)
        goto done;
    for (int32_t i = 0; i < num_terminals; i++) {
        int32_t row = map_get(&solve->member_index, terminals[i]);
        if (row != EMPTY)
            terminal[row] = 1;
    }
    for (int32_t e = 0; e < num_tree; e++) {
        degree[ends[0][e]]++;
        degree[ends[1][e]]++;
    }
    for (int32_t row = 0; row < rows; row++)
        first[row + 1] = first[row] + degree[row];
    int32_t *fill = leaves; /* as scratch: the next free slot per row */
    memcpy(fill, first, (size_t)rows * sizeof(int32_t));
    for (int32_t e = 0; e < num_tree; e++) {
        incident[fill[ends[0][e]]++] = e;
        incident[fill[ends[1][e]]++] = e;
    }
    int32_t count = 0;
    for (int32_t row = 0; row < rows; row++) {
        if (degree[row] == 1 && !terminal[row])
            leaves[count++] = row;
    }
    while (count) {
        int32_t leaf = leaves[--count];
        for (int32_t k = first[leaf]; k < first[leaf + 1]; k++) {
            int32_t e = incident[k];
            if (removed[e])
                continue;
            removed[e] = 1;
            degree[leaf]--;
            int32_t other = ends[0][e] == leaf ? ends[1][e] : ends[0][e];
            if (--degree[other] == 1 && !terminal[other])
                leaves[count++] = other;
        }
    }
    solve->kept.count = 0;
    if (reserve(&solve->kept.data, &solve->kept.capacity, num_tree, sizeof(int32_t)) < 0)
        goto done;
    for (int32_t e = 0; e < num_tree; e++) {
        if (!removed[e])
            solve->kept.data[solve->kept.count++] = solve->tree.data[e];
    }
    status = 0;
done:
    free(degree);
    free(first);
    free(incident);
    free(leaves);
    free(terminal);
    free(removed);
    publish(solve);
    return status;
}

/* `_best_steiner_position` without landmarks (III-D): the index on the path
 * (`length` edges, `length + 1` nodes, seed first) minimising
 * `sw * d(P[u,s]) + tw * d(P[v,s])` plus the cheapest lower bound
 * `l1 * min_cost + (sw + tw) * (l1 * fastest)` from the node to one of
 * `roots`.  Python's evaluation order: the prefix is a running sum, and the
 * first minimum wins. */
int32_t cd_best_steiner(const Solve *solve, const int32_t *nodes, const int32_t *edges,
                        int32_t length, const int32_t *roots, int32_t num_roots,
                        double source_weight, double target_weight, double min_cost,
                        double fastest)
{
    const int32_t nx = solve->nx, planar_tiles = solve->planar_tiles;
    double total = 0.0;
    for (int32_t i = 0; i < length; i++)
        total = total + solve->delay[edges[i]];
    const double combined = source_weight + target_weight;
    double prefix = 0.0, best_value = 0.0;
    int32_t best = 0;
    for (int32_t i = 0; i <= length; i++) {
        if (i > 0)
            prefix = prefix + solve->delay[edges[i - 1]];
        double value = source_weight * prefix + target_weight * (total - prefix);
        int32_t tile = nodes[i] % planar_tiles;
        int32_t x = tile % nx, y = tile / nx;
        double remaining = 0.0; /* no roots: `remaining or 0.0` */
        for (int32_t j = 0; j < num_roots; j++) {
            int32_t root_tile = roots[j] % planar_tiles;
            double l1 = (double)(abs(x - root_tile % nx) + abs(y - root_tile / nx));
            double bound = l1 * min_cost;
            bound = bound + combined * (l1 * fastest);
            if (j == 0 || bound < remaining)
                remaining = bound;
        }
        value = value + remaining;
        if (i == 0 || value < best_value) {
            best_value = value;
            best = i;
        }
    }
    return best;
}

/* ------------------------------------- pieces, for tests and heap streams */

/* Register search `id` of component `comp` with its seed labelled 0 and
 * queued under `key`. */
int cd_start_search(Solve *solve, int32_t id, int32_t node, int32_t comp, double weight,
                    double rate, double key)
{
    return start_search(solve, id, node, comp, weight, rate, key);
}

/* connection_key of search `id`'s candidate towards component `comp`
 * (NAN if it has no live owner). */
double cd_connection_key(const Solve *solve, int32_t id, int32_t comp, double delay, double dist)
{
    const Search *search = search_find(solve, id), *target;
    if (search == NULL || comp < 0 || comp >= solve->num_comps || !owner_of(solve, comp, &target))
        return NAN;
    return connection_key(solve, search, target, delay, dist);
}

/* add_tree_edge, into the View's tree. */
int cd_add_tree_edge(Solve *solve, int32_t edge, int32_t u, int32_t v)
{
    int status = add_tree_edge(solve, edge, u, v);
    publish(solve);
    return status;
}

/* Put each node into component `comp` (a new member's delay is 0.0). */
int cd_set_component(Solve *solve, const int32_t *nodes, int32_t count, int32_t comp)
{
    if (comp < 0 || comp_reserve(solve, comp) < 0)
        return -1;
    for (int32_t i = 0; i < count; i++) {
        if (join(solve, nodes[i], comp) < 0)
            return -1;
    }
    return 0;
}

/* The component of `node` (EMPTY if none) and its member delay. */
int32_t cd_member(const Solve *solve, int32_t node, double *delay)
{
    int32_t row = map_get(&solve->member_index, node);
    *delay = row == EMPTY ? 0.0 : solve->members[row].delay;
    return row == EMPTY ? EMPTY : solve->members[row].comp;
}

/* The component delays of `comp` along the given `edges`. */
int cd_component_delays(Solve *solve, const int32_t *edges, int32_t num_edges,
                        int32_t representative, int32_t comp)
{
    map_clear(&solve->walk_edges);
    for (int32_t i = 0; i < num_edges; i++) {
        if (map_put(&solve->walk_edges, edges[i], 0) < 0)
            return -1;
    }
    return component_delays(solve, &solve->walk_edges, representative, comp);
}

/* The target field of `tiles` (see set_targets). */
void cd_set_targets(Solve *solve, const int32_t *tiles, int32_t count)
{
    set_targets(solve, tiles, count);
}

/* The settled-node scan of a merge without its pushes, into the View's
 * pairs: 0, or -1 out of memory. */
int cd_settled_on(Solve *solve, const int32_t *nodes, int32_t num_nodes, int32_t comp)
{
    int status = scan(solve, nodes, num_nodes, comp, 0);
    publish(solve);
    return status;
}

/* TwoLevelHeap.add_search */
int cd_add_search(Solve *solve, int32_t id)
{
    return search_get(solve, id) ? 0 : -1;
}

/* TwoLevelHeap.remove_search: drop a search, its labels and its items. */
void cd_remove_search(Solve *solve, int32_t id)
{
    remove_search(solve, id);
}

/* TwoLevelHeap.push of `node`'s label (kind 0) or connection candidate
 * (kind 1): 1 queued or decreased, 0 unchanged, -1 out of memory. */
int cd_push(Solve *solve, int32_t id, int32_t node, int32_t kind, double key)
{
    Search *search = search_get(solve, id);
    if (search == NULL)
        return -1;
    int32_t entry = entry_of(search, node, 1);
    if (entry < 0)
        return -1;
    return heap_push(solve, id, search, 2 * entry + kind, key);
}

/* TwoLevelHeap.pop, outside the loop: 0 if empty. */
int cd_pop(Solve *solve, double *key, int32_t *id, int32_t *node, int32_t *kind)
{
    int32_t item;
    if (!heap_pop(solve, key, id, &item))
        return 0;
    *node = solve->searches[*id]->entries[item >> 1].node;
    *kind = item & 1;
    return 1;
}

int64_t cd_len(const Solve *solve)
{
    return solve->size;
}

double cd_min_key(const Solve *solve)
{
    return solve->top_size ? solve->top_keys[0] : INFINITY;
}
