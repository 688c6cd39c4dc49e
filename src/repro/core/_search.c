/*
 * The search loop of the cost-distance kernel (core/cost_distance.py), in C.
 *
 * One Solve holds the state of one run of Algorithm 1 that the loop
 * touches per pop: every live search's labels (tentative distance, parent,
 * permanent flag), its sub-heap, its own component edges (III-A), the top
 * heap of the two-level heap (III-B), and per component node its component
 * and its delay to the component's representative terminal.  Three merge
 * steps run here too, each on Python's word: the component delays
 * (cd_component_delays), the Steiner placement of III-D without landmarks
 * (cd_best_steiner) and the per-tile A* target field (cd_set_targets).
 * Every decision -- merges, owners, connection keys, the RNG placement --
 * stays in Python, which reads this state through cd_path and
 * cd_settled_on.
 *
 * The Python loop `_Solve.run` is the specification of the loop: the heap's
 * sift loops (sift-up stops at <=, sift-down prefers the left child on ties
 * and stops at >=), the pop-then-push of the top entry, remove_search's swap
 * with the last entry, the per-node ascending edge order and every float
 * expression are the same, so every pop, label and tree is the same.
 * `_component_delays`, `_best_steiner_position` and `_target_l1` specify the
 * merge steps, value for value.  Compile without floating-point contraction
 * (-ffp-contract=off): `a + b + w * d` must stay two roundings apart from a
 * fused multiply-add.
 *
 * Memory grows with the nodes a search touches and the nodes of the
 * components, never with the graph (the target field, one double per planar
 * tile, is Python's buffer): labels and component nodes sit in
 * open-addressing tables keyed by node.  There is no global mutable state;
 * concurrent solves in threads share nothing but the read-only graph and
 * cost arrays.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EMPTY (-1)

/* cd_run's events */
#define EV_EXHAUSTED 0 /* the queue ran empty */
#define EV_SETTLED 1   /* a search settled a node of another component */
#define EV_CONNECT 2   /* a connection candidate left the queue */
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

/* ------------------------------------------------------------ searches */

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
    IntMap own_edges; /* III-A: the edges of the search's component */
} Search;

/* A node of a component (or of a component's edge set). */
typedef struct {
    int32_t node;
    int32_t comp;  /* EMPTY: none */
    int32_t walk;  /* the last cd_component_delays walk that labelled it */
    int32_t done;  /* settled in walk `walk` */
    double delay;  /* to its component's representative (0.0 until reached) */
    double label;  /* its tentative delay in walk `walk` */
} Member;

typedef struct {
    /* The routing graph in CSR form and the batch's arrays (borrowed). */
    const int32_t *start, *edge, *other;
    const double *cost, *delay;
    double *l1; /* per planar tile (borrowed, written by cd_set_targets); NULL: all zero */
    int32_t nx, ny, planar_tiles;
    int32_t discount;
    IntMap member_index; /* node -> member */
    Member *members;
    int32_t num_members, member_capacity;
    /* The scratch of cd_component_delays: its edge set and its heap. */
    IntMap walk_edges;
    double *walk_keys;
    int32_t *walk_items;
    int32_t walk_size, walk_capacity, walks;
    Search **searches; /* by search id */
    int32_t num_searches;
    /* The top heap over the sub-heap minima. */
    double *top_keys;
    int32_t *top_items;
    int32_t top_size, top_capacity;
    int64_t size; /* queued items, all searches */
    int64_t pops, labels;
    /* A settled node whose relaxation waits for the next cd_run. */
    int32_t pending_search, pending_node;
    double pending_dist;
} Solve;

typedef struct {
    double key;
    double dist;
    double delay; /* the node's, to its component's representative */
    int32_t search;
    int32_t node;
    int32_t permanent;
    int32_t comp; /* the node's component, EMPTY if none */
} Event;

static void search_free(Search *search)
{
    if (search == NULL)
        return;
    map_free(&search->index);
    map_free(&search->own_edges);
    free(search->entries);
    free(search->keys);
    free(search->items);
    free(search);
}

/* The search `id`, registered empty if it is not. */
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
        solve->searches[id] = search;
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
    member->walk = 0;
    member->done = 0;
    member->delay = 0.0;
    member->label = INFINITY;
    return index;
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

/* ---------------------------------------------------------------- API */

Solve *cd_new(const int32_t *start, const int32_t *edge, const int32_t *other,
              const double *cost, const double *delay, int32_t nx, int32_t ny, int32_t discount)
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
    solve->discount = discount;
    solve->pending_search = EMPTY;
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
    map_free(&solve->walk_edges);
    free(solve->walk_keys);
    free(solve->walk_items);
    free(solve->top_keys);
    free(solve->top_items);
    free(solve);
}

/* node_comp[node] = comp for each node (a new member's delay is 0.0). */
int cd_set_component(Solve *solve, const int32_t *nodes, int32_t count, int32_t comp)
{
    for (int32_t i = 0; i < count; i++) {
        int32_t member = member_of(solve, nodes[i], 1);
        if (member < 0)
            return -1;
        solve->members[member].comp = comp;
    }
    return 0;
}

/* TwoLevelHeap.add_search */
int cd_add_search(Solve *solve, int32_t id)
{
    return search_get(solve, id) ? 0 : -1;
}

/* activate + start_search: label the seed 0 and queue it under `key`. */
int cd_start_search(Solve *solve, int32_t id, int32_t node, int32_t comp, double weight,
                    double rate, double key, const int32_t *own_edges, int32_t num_own_edges)
{
    Search *search = search_get(solve, id);
    if (search == NULL)
        return -1;
    search->comp = comp;
    search->weight = weight;
    search->rate = rate;
    for (int32_t i = 0; i < num_own_edges; i++) {
        if (map_put(&search->own_edges, own_edges[i], 0) < 0)
            return -1;
    }
    int32_t entry = entry_of(search, node, 1);
    if (entry < 0)
        return -1;
    search->entries[entry].dist = 0.0;
    return heap_push(solve, id, search, 2 * entry, key) < 0 ? -1 : 0;
}

/* TwoLevelHeap.remove_search: drop a search, its labels and its items. */
void cd_remove_search(Solve *solve, int32_t id)
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

void cd_counts(const Solve *solve, int64_t *pops, int64_t *labels)
{
    *pops = solve->pops;
    *labels = solve->labels;
}

/* Relax the edges of `node`, just settled at `dist` by search `id`. */
static int relax(Solve *solve, int32_t id, Search *search, int32_t node, double dist)
{
    const double weight = search->weight;
    const double rate = search->rate;
    const int discount = solve->discount && search->own_edges.count > 0;
    const int32_t planar_tiles = solve->planar_tiles;
    for (int32_t k = solve->start[node]; k < solve->start[node + 1]; k++) {
        int32_t edge = solve->edge[k];
        int32_t other = solve->other[k];
        int32_t entry = map_get(&search->index, other);
        if (entry != EMPTY && search->entries[entry].permanent)
            continue;
        double edge_cost;
        if (discount && map_get(&search->own_edges, edge) != EMPTY)
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
            double l1 = solve->l1 ? solve->l1[other % planar_tiles] : 0.0;
            if (heap_push(solve, id, search, 2 * entry, candidate + l1 * rate) < 0)
                return -1;
        }
    }
    return 0;
}

/* Pop and settle until Python has to decide something (see EV_*). */
int cd_run(Solve *solve, Event *event)
{
    if (solve->pending_search != EMPTY) {
        int32_t id = solve->pending_search;
        solve->pending_search = EMPTY;
        Search *search = search_find(solve, id);
        if (search && relax(solve, id, search, solve->pending_node, solve->pending_dist) < 0)
            return EV_NOMEM;
    }
    for (;;) {
        double key;
        int32_t id, item;
        if (!heap_pop(solve, &key, &id, &item))
            return EV_EXHAUSTED;
        solve->pops++;
        Search *search = solve->searches[id];
        Entry *entry = &search->entries[item >> 1];
        if (item & 1) {
            int32_t member = map_get(&solve->member_index, entry->node);
            event->key = key;
            event->dist = entry->dist;
            event->delay = member == EMPTY ? 0.0 : solve->members[member].delay;
            event->search = id;
            event->node = entry->node;
            event->permanent = entry->permanent;
            event->comp = member == EMPTY ? EMPTY : solve->members[member].comp;
            return EV_CONNECT;
        }
        if (entry->permanent)
            continue;
        entry->permanent = 1;
        solve->labels++;
        int32_t node = entry->node;
        double dist = entry->dist;
        int32_t member = map_get(&solve->member_index, node);
        if (member != EMPTY && solve->members[member].comp != EMPTY &&
            solve->members[member].comp != search->comp) {
            solve->pending_search = id;
            solve->pending_node = node;
            solve->pending_dist = dist;
            event->key = key;
            event->dist = dist;
            event->delay = solve->members[member].delay;
            event->search = id;
            event->node = node;
            event->permanent = 1;
            event->comp = solve->members[member].comp;
            return EV_SETTLED;
        }
        if (relax(solve, id, search, node, dist) < 0)
            return EV_NOMEM;
    }
}

/* The parent path of search `id` from its seed to `node`: writes its
 * nodes (seed first) and edges if it has at most `capacity` nodes, and
 * returns the number of edges either way. */
int32_t cd_path(const Solve *solve, int32_t id, int32_t node, int32_t *nodes, int32_t *edges,
                int32_t capacity)
{
    const Search *search = search_find(solve, id);
    if (search == NULL)
        return -1;
    int32_t length = 0;
    for (int32_t at = node;;) {
        int32_t entry = map_get(&search->index, at);
        if (entry == EMPTY || search->entries[entry].parent_edge == EMPTY)
            break;
        at = search->entries[entry].parent_node;
        length++;
    }
    if (length + 1 > capacity)
        return length;
    int32_t pos = length;
    nodes[pos] = node;
    for (int32_t at = node; pos > 0;) {
        const Entry *entry = &search->entries[map_get(&search->index, at)];
        pos--;
        edges[pos] = entry->parent_edge;
        at = nodes[pos] = entry->parent_node;
    }
    return length;
}

/* For each node (outer) and each search of `ids` (inner, in order) whose
 * component is not `comp` and which has settled the node: the pair, the
 * node's distance and the node's member delay.  Writes the first
 * `capacity` of them and returns how many there are. */
int32_t cd_settled_on(const Solve *solve, const int32_t *nodes, int32_t num_nodes,
                      const int32_t *ids, int32_t num_ids, int32_t comp, int32_t capacity,
                      int32_t *out_nodes, int32_t *out_ids, double *out_dist, double *out_delay)
{
    int32_t count = 0;
    for (int32_t i = 0; i < num_nodes; i++) {
        int32_t member = map_get(&solve->member_index, nodes[i]);
        double delay = member == EMPTY ? 0.0 : solve->members[member].delay;
        for (int32_t j = 0; j < num_ids; j++) {
            const Search *search = search_find(solve, ids[j]);
            if (search == NULL || search->comp == comp)
                continue;
            int32_t entry = map_get(&search->index, nodes[i]);
            if (entry == EMPTY || !search->entries[entry].permanent)
                continue;
            if (count < capacity) {
                out_nodes[count] = nodes[i];
                out_ids[count] = ids[j];
                out_dist[count] = search->entries[entry].dist;
                out_delay[count] = delay;
            }
            count++;
        }
    }
    return count;
}

/* ------------------------------------------------------------ merge steps */

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

/* `_component_delays`: a Dijkstra over the component's `edges` from
 * `representative`, writing each reached node's delay into the member
 * table.  Only members of `comp` are written -- the edges may pass through
 * another component's node, which keeps its own delay -- and a member of
 * `comp` the walk does not reach reads 0.0.  Any tie order gives the same
 * doubles: fl(a + d) is monotone in a.  0, or -1 out of memory. */
int cd_component_delays(Solve *solve, const int32_t *edges, int32_t num_edges,
                        int32_t representative, int32_t comp)
{
    map_clear(&solve->walk_edges);
    for (int32_t i = 0; i < num_edges; i++) {
        if (map_put(&solve->walk_edges, edges[i], 0) < 0)
            return -1;
    }
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
            if (map_get(&solve->walk_edges, edge) == EMPTY)
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

/* `_target_l1` into `l1` (one double per planar tile, kept as the A*
 * field): per tile the L1 distance to the nearest of up to 8 target tiles,
 * to their bounding box beyond.  No targets: all zero. */
void cd_set_targets(Solve *solve, double *l1, const int32_t *tiles, int32_t count)
{
    const int32_t nx = solve->nx, ny = solve->ny;
    solve->l1 = l1;
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
